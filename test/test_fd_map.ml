(* Sio_sim.Fd_map: model equivalence against Map.Make(Int), the
   mutation-during-iteration contract, and the determinism property
   (iteration order is a function of the bindings alone, never of
   insertion history) that lets it replace sorted Hashtbl snapshots. *)

open Sio_sim

module IntMap = Map.Make (Int)

(* --- basics -------------------------------------------------------- *)

let test_empty () =
  let m : int Fd_map.t = Fd_map.create ~dummy:0 () in
  Alcotest.(check int) "length" 0 (Fd_map.length m);
  Alcotest.(check bool) "is_empty" true (Fd_map.is_empty m);
  Alcotest.(check bool) "mem" false (Fd_map.mem m 3);
  Alcotest.(check bool) "mem negative" false (Fd_map.mem m (-1));
  Alcotest.(check (option int)) "find" None (Fd_map.find m 0);
  Alcotest.(check (option int)) "find negative" None (Fd_map.find m (-7));
  Alcotest.(check (option int)) "min_key" None (Fd_map.min_key m);
  Alcotest.(check (option int)) "max_key" None (Fd_map.max_key m);
  Alcotest.(check (list (pair int int))) "to_list" [] (Fd_map.to_list m)

let test_set_find_remove () =
  let m = Fd_map.create ~initial_capacity:4 ~dummy:"" () in
  Fd_map.set m 5 "a";
  Fd_map.set m 2 "b";
  Fd_map.set m 5 "c";
  (* replace *)
  Alcotest.(check int) "length counts keys, not sets" 2 (Fd_map.length m);
  Alcotest.(check (option string)) "replaced" (Some "c") (Fd_map.find m 5);
  Alcotest.(check bool) "remove live" true (Fd_map.remove m 5);
  Alcotest.(check bool) "remove dead" false (Fd_map.remove m 5);
  Alcotest.(check bool) "remove never-present" false (Fd_map.remove m 100);
  Alcotest.(check int) "length after remove" 1 (Fd_map.length m);
  Alcotest.(check (option string)) "survivor" (Some "b") (Fd_map.find m 2)

let test_negative_key_rejected () =
  let m = Fd_map.create ~dummy:0 () in
  Alcotest.check_raises "set negative"
    (Invalid_argument "Fd_map.set: negative key") (fun () -> Fd_map.set m (-1) 0)

let test_growth_past_capacity () =
  let m = Fd_map.create ~initial_capacity:2 ~dummy:0 () in
  (* Keys far beyond the initial capacity, across several word
     boundaries of the occupancy bitmap. *)
  List.iter (fun k -> Fd_map.set m k (k * 10)) [ 0; 31; 32; 63; 64; 1000 ];
  Alcotest.(check int) "length" 6 (Fd_map.length m);
  Alcotest.(check (list (pair int int)))
    "ascending"
    [ (0, 0); (31, 310); (32, 320); (63, 630); (64, 640); (1000, 10000) ]
    (Fd_map.to_list m);
  Alcotest.(check (option int)) "min" (Some 0) (Fd_map.min_key m);
  Alcotest.(check (option int)) "max" (Some 1000) (Fd_map.max_key m)

let test_clear_retains_storage () =
  let m = Fd_map.create ~initial_capacity:4 ~dummy:0 () in
  List.iter (fun k -> Fd_map.set m k k) [ 1; 2; 3; 200 ];
  Fd_map.clear m;
  Alcotest.(check int) "empty after clear" 0 (Fd_map.length m);
  Alcotest.(check (list (pair int int))) "no bindings" [] (Fd_map.to_list m);
  Fd_map.set m 7 70;
  Alcotest.(check (list (pair int int))) "reusable" [ (7, 70) ] (Fd_map.to_list m)

(* --- determinism: iteration order is intrinsic --------------------- *)

(* The PR 2 watch-insertion-permutation regression, re-run on the
   container itself: maps holding the same bindings iterate
   identically no matter the insertion/removal history that produced
   them. (test_event_loop.ml keeps the end-to-end version.) *)
let test_insertion_permutation_invariant () =
  let keys = [ 9; 3; 31; 64; 0; 17; 32; 5 ] in
  let build order =
    let m = Fd_map.create ~initial_capacity:2 ~dummy:"" () in
    List.iter (fun k -> Fd_map.set m k (string_of_int k)) order;
    (* Churn: remove and re-add a couple of keys so resize/removal
       history differs between permutations too. *)
    ignore (Fd_map.remove m 17);
    Fd_map.set m 17 "17";
    Fd_map.to_list m
  in
  let reference = build keys in
  Alcotest.(check (list (pair int string)))
    "reversed insertion" reference (build (List.rev keys));
  Alcotest.(check (list (pair int string)))
    "sorted insertion" reference
    (build (List.sort compare keys));
  Alcotest.(check (list (pair int string)))
    "ascending keys" (List.map (fun (k, _) -> (k, string_of_int k))
                        (List.sort compare (List.map (fun k -> (k, ())) keys)))
    reference

(* --- mutation during iteration ------------------------------------- *)

let test_remove_current_during_iter () =
  let m = Fd_map.create ~dummy:0 () in
  List.iter (fun k -> Fd_map.set m k k) [ 1; 4; 9 ];
  let visited = ref [] in
  Fd_map.iter m (fun k _ ->
      visited := k :: !visited;
      ignore (Fd_map.remove m k));
  Alcotest.(check (list int)) "all visited" [ 1; 4; 9 ] (List.rev !visited);
  Alcotest.(check int) "all removed" 0 (Fd_map.length m)

let test_remove_upcoming_during_iter () =
  let m = Fd_map.create ~dummy:0 () in
  List.iter (fun k -> Fd_map.set m k k) [ 1; 4; 9; 40 ];
  let visited = ref [] in
  Fd_map.iter m (fun k _ ->
      visited := k :: !visited;
      (* From the first key, delete one upcoming key in the same
         bitmap word and one in a later word. *)
      if k = 1 then begin
        ignore (Fd_map.remove m 9);
        ignore (Fd_map.remove m 40)
      end);
  Alcotest.(check (list int)) "removed keys not visited" [ 1; 4 ] (List.rev !visited);
  Alcotest.(check int) "two survive" 2 (Fd_map.length m)

let test_add_during_iter () =
  let m = Fd_map.create ~initial_capacity:4 ~dummy:0 () in
  List.iter (fun k -> Fd_map.set m k k) [ 2; 6 ];
  let visited = ref [] in
  Fd_map.iter m (fun k _ ->
      visited := k :: !visited;
      if k = 2 then begin
        (* Ahead of the cursor — visited this pass, even though adding
           key 500 grows the backing store mid-iteration. *)
        Fd_map.set m 10 10;
        Fd_map.set m 500 500;
        (* At/behind the cursor — bound, but not visited this pass. *)
        Fd_map.set m 0 0;
        Fd_map.set m 2 20
      end);
  Alcotest.(check (list int)) "ahead visited, behind skipped" [ 2; 6; 10; 500 ]
    (List.rev !visited);
  Alcotest.(check (option int)) "behind-cursor add took effect" (Some 0) (Fd_map.find m 0);
  Alcotest.(check (option int)) "current-key replace took effect" (Some 20) (Fd_map.find m 2)

(* --- qcheck model equivalence -------------------------------------- *)

(* Random op sequences applied in lockstep to Fd_map and Map.Make(Int);
   observable behaviour (find results, ordered bindings, extrema,
   length) must agree at every step. *)
type op = Set of int * int | Remove of int | Clear

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun k v -> Set (k, v)) (int_bound 200) (int_bound 1000));
        (3, map (fun k -> Remove k) (int_bound 200));
        (1, return Clear);
      ])

let op_print = function
  | Set (k, v) -> Printf.sprintf "Set(%d,%d)" k v
  | Remove k -> Printf.sprintf "Remove %d" k
  | Clear -> "Clear"

let prop_model_equivalence =
  QCheck.Test.make ~name:"random op interleavings match Map.Make(Int)" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map op_print ops))
       QCheck.Gen.(list_size (int_bound 60) op_gen))
    (fun ops ->
      let m = Fd_map.create ~initial_capacity:1 ~dummy:0 () in
      let model = ref IntMap.empty in
      List.iter
        (fun op ->
          (match op with
          | Set (k, v) ->
              Fd_map.set m k v;
              model := IntMap.add k v !model
          | Remove k ->
              let removed = Fd_map.remove m k in
              if removed <> IntMap.mem k !model then
                QCheck.Test.fail_reportf "remove %d disagreed" k;
              model := IntMap.remove k !model
          | Clear ->
              Fd_map.clear m;
              model := IntMap.empty);
          if Fd_map.length m <> IntMap.cardinal !model then
            QCheck.Test.fail_reportf "length %d <> cardinal %d" (Fd_map.length m)
              (IntMap.cardinal !model);
          if Fd_map.to_list m <> IntMap.bindings !model then
            QCheck.Test.fail_reportf "bindings diverged after %s" (op_print op))
        ops;
      (* Final deep probe: every key in range, plus extrema. *)
      for k = 0 to 200 do
        if Fd_map.find m k <> IntMap.find_opt k !model then
          QCheck.Test.fail_reportf "find %d diverged" k;
        if Fd_map.mem m k <> IntMap.mem k !model then
          QCheck.Test.fail_reportf "mem %d diverged" k
      done;
      let model_min = Option.map fst (IntMap.min_binding_opt !model) in
      let model_max = Option.map fst (IntMap.max_binding_opt !model) in
      Fd_map.min_key m = model_min && Fd_map.max_key m = model_max
      && Fd_map.fold m ~init:[] ~f:(fun acc k v -> (k, v) :: acc)
         = List.rev (IntMap.bindings !model))

(* Values are stored unboxed: [get] answers the filler for unbound
   keys, allocates nothing, and a removed value is not kept alive. *)
let[@inline never] bind_fresh m k weak =
  let v = Bytes.make 8 'v' in
  Weak.set weak 0 (Some v);
  Fd_map.set m k v

let test_get_is_unboxed () =
  let dummy = Bytes.empty in
  let m = Fd_map.create ~initial_capacity:4 ~dummy () in
  Alcotest.(check bool) "unbound reads the dummy" true (Fd_map.get m 3 == dummy);
  Alcotest.(check bool) "negative reads the dummy" true (Fd_map.get m (-1) == dummy);
  Alcotest.(check bool) "past capacity reads the dummy" true (Fd_map.get m 1000 == dummy);
  let weak = Weak.create 1 in
  bind_fresh m 3 weak;
  Alcotest.(check bool) "bound value" true
    (match Weak.get weak 0 with Some v -> Fd_map.get m 3 == v | None -> false);
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Fd_map.get m 3))
  done;
  Alcotest.(check bool) "get allocates nothing" true (Gc.minor_words () -. w0 < 16.);
  ignore (Fd_map.remove m 3);
  Alcotest.(check bool) "removed reads the dummy" true (Fd_map.get m 3 == dummy);
  Gc.full_major ();
  Alcotest.(check bool) "removed value released" false (Weak.check weak 0)

let suite =
  [
    Alcotest.test_case "empty map" `Quick test_empty;
    Alcotest.test_case "get is unboxed and answers the dummy" `Quick test_get_is_unboxed;
    Alcotest.test_case "set/find/remove/replace" `Quick test_set_find_remove;
    Alcotest.test_case "negative keys rejected" `Quick test_negative_key_rejected;
    Alcotest.test_case "growth past initial capacity" `Quick test_growth_past_capacity;
    Alcotest.test_case "clear retains storage" `Quick test_clear_retains_storage;
    Alcotest.test_case "iteration order ignores insertion history" `Quick
      test_insertion_permutation_invariant;
    Alcotest.test_case "remove current key during iter" `Quick test_remove_current_during_iter;
    Alcotest.test_case "remove upcoming key during iter" `Quick
      test_remove_upcoming_during_iter;
    Alcotest.test_case "add during iter (incl. growth)" `Quick test_add_during_iter;
    QCheck_alcotest.to_alcotest prop_model_equivalence;
  ]
