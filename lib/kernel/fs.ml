open Sio_sim

type file = { id : int; mutable bytes : int }

type t = {
  host : Host.t;
  page_bytes : int;
  disk_access : Time.t;
  cache : Page_cache.t;
  files : (string, file) Hashtbl.t;
  mutable next_id : int;
}

(* Fixed CPU costs of the lookup paths (dentry cache hit; the paper's
   workload never walks cold directories). *)
let namei_cost = Time.ns 1_500
let page_probe_cost = Time.ns 150

let create ~host ?(cache_pages = 4096) ?(page_bytes = 4096) ?(disk_access = Time.ms 9) () =
  if cache_pages <= 0 then invalid_arg "Fs.create: cache_pages must be positive";
  if page_bytes <= 0 then invalid_arg "Fs.create: page_bytes must be positive";
  if Time.is_negative disk_access then invalid_arg "Fs.create: negative disk_access";
  {
    host;
    page_bytes;
    disk_access;
    cache = Page_cache.create ~capacity_pages:cache_pages;
    files = Hashtbl.create 64;
    next_id = 0;
  }

let add_file t ~path ~bytes =
  if bytes < 0 then invalid_arg "Fs.add_file: negative size";
  match Hashtbl.find_opt t.files path with
  | Some f ->
      ignore (Page_cache.invalidate_file t.cache ~file_id:f.id);
      f.bytes <- bytes
  | None ->
      let id = t.next_id in
      t.next_id <- id + 1;
      Hashtbl.replace t.files path { id; bytes }

let file_count t = Hashtbl.length t.files

let stat t path =
  ignore (Host.charge t.host namei_cost);
  match Hashtbl.find_opt t.files path with
  | Some f -> Ok f.bytes
  | None -> Error `Enoent

let read_file t path =
  ignore (Host.charge t.host namei_cost);
  match Hashtbl.find_opt t.files path with
  | None -> Error `Enoent
  | Some f ->
      let pages = (f.bytes + t.page_bytes - 1) / t.page_bytes in
      for page = 0 to pages - 1 do
        ignore (Host.charge t.host page_probe_cost);
        match Page_cache.touch t.cache ~file_id:f.id ~page with
        | `Hit -> ()
        | `Miss ->
            (* A synchronous disk read stalls the single-threaded
               server; charging it as busy time models that stall. *)
            ignore (Host.charge t.host t.disk_access)
      done;
      Ok f.bytes

let cache_hits t = Page_cache.hits t.cache
let cache_misses t = Page_cache.misses t.cache
let cache_resident_pages t = Page_cache.resident t.cache
