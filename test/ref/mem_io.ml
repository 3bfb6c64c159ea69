(* An in-memory file system behind [Io.t] that logs every operation that
   changes the disk, and the disk states a crash after any prefix of
   that log may leave, under two crash models (after ALICE: Pillai et
   al., "All File Systems Are Not Created Equal", OSDI 2014):

   - [Reordering]: per file, the bytes of its last fsync survive, plus
     any prefix of its later writes and truncations (the last write cut
     at any byte); a name operation (create, rename, remove) survives
     only after a successful fsync of its directory, and until then
     any subset of the pending ones may;
   - [In_order]: operations persist in the order issued, so the disk is
     the result of some prefix of the log no shorter than its last
     fsync, the next write possibly cut short.

   Directories themselves (mkdir) are taken as durable. Cutting a write
   at every byte is exhaustive; [~every_byte:false] cuts at 0, 1, 4, 8,
   the middle, n-1 and n bytes (a frame's header is 8 bytes). *)

module Io = Aqv_store.Io
module SM = Map.Make (String)
module IM = Map.Make (Int)

type op =
  | Link of string * int  (** a created name and its new inode *)
  | Write of int * string  (** appended to the inode *)
  | Truncate of int * int
  | Fsync of int
  | Rename of string * string * int  (** source, target, the inode moved *)
  | Unlink of string
  | Fsync_dir of string

type model = Reordering | In_order

(* A disk: names to inodes, inodes to bytes. *)
type disk = { names : int SM.t; data : string IM.t }

type image = (string * string) list
(** every file by name, with its bytes, sorted by name *)

type t = {
  mutable disk : disk;
  mutable next_inode : int;
  mutable log : op list;  (** newest first *)
  mutable dirs : string list;
  mutable fail_dir_fsync : int option;
      (** the directory fsync this many calls ahead raises EIO and
          persists nothing *)
}

let empty = { names = SM.empty; data = IM.empty }

let apply d = function
  | Link (name, ino) -> { names = SM.add name ino d.names; data = IM.add ino "" d.data }
  | Write (ino, s) -> { d with data = IM.add ino (IM.find ino d.data ^ s) d.data }
  | Truncate (ino, n) ->
      let s = IM.find ino d.data in
      let s =
        if n <= String.length s then String.sub s 0 n
        else s ^ String.make (n - String.length s) '\000'
      in
      { d with data = IM.add ino s d.data }
  | Rename (src, dst, ino) ->
      let names =
        match SM.find_opt src d.names with
        | Some i when i = ino -> SM.remove src d.names
        | _ -> d.names
      in
      { d with names = SM.add dst ino names }
  | Unlink name -> { d with names = SM.remove name d.names }
  | Fsync _ | Fsync_dir _ -> d

let image d : image =
  SM.bindings d.names
  |> List.map (fun (name, ino) -> (name, Option.value ~default:"" (IM.find_opt ino d.data)))

let create () =
  { disk = empty; next_inode = 0; log = []; dirs = []; fail_dir_fsync = None }

(* A fresh file system holding [img] in [dirs], with an empty log. *)
let of_image ~dirs (img : image) =
  let t = create () in
  t.dirs <- dirs;
  List.iter
    (fun (name, bytes) ->
      let ino = t.next_inode in
      t.next_inode <- ino + 1;
      t.disk <- apply (apply t.disk (Link (name, ino))) (Write (ino, bytes)))
    img;
  t

let ops t = Array.of_list (List.rev t.log)
let op_count t = List.length t.log
let fail_dir_fsync t n = t.fail_dir_fsync <- Some n

let log t op =
  t.log <- op :: t.log;
  t.disk <- apply t.disk op

let enoent what path = raise (Unix.Unix_error (Unix.ENOENT, what, path))

let inode t what path =
  match SM.find_opt path t.disk.names with Some ino -> ino | None -> enoent what path

let io t : Io.t =
  let file ino : Io.file =
    {
      write = (fun s -> log t (Write (ino, s)));
      fsync = (fun () -> log t (Fsync ino));
      truncate = (fun n -> log t (Truncate (ino, n)));
      close = ignore;
    }
  in
  {
    open_file =
      (fun path mode ->
        match (mode, SM.find_opt path t.disk.names) with
        | Io.Create, Some ino ->
            log t (Truncate (ino, 0));
            file ino
        | Io.Create, None ->
            if not (List.mem (Filename.dirname path) t.dirs) then enoent "open" path;
            let ino = t.next_inode in
            t.next_inode <- ino + 1;
            log t (Link (path, ino));
            file ino
        | Io.Append, Some ino -> file ino
        | Io.Append, None -> enoent "open" path);
    read = (fun path -> IM.find (inode t "open" path) t.disk.data);
    rename = (fun src dst -> log t (Rename (src, dst, inode t "rename" src)));
    fsync_dir =
      (fun dir ->
        match t.fail_dir_fsync with
        | Some 0 ->
            t.fail_dir_fsync <- None;
            raise (Unix.Unix_error (Unix.EIO, "fsync", dir))
        | Some n ->
            t.fail_dir_fsync <- Some (n - 1);
            log t (Fsync_dir dir)
        | None -> log t (Fsync_dir dir));
    remove =
      (fun path ->
        ignore (inode t "unlink" path);
        log t (Unlink path));
    exists = (fun path -> SM.mem path t.disk.names || List.mem path t.dirs);
    mkdir =
      (fun dir ->
        if List.mem dir t.dirs then raise (Unix.Unix_error (Unix.EEXIST, "mkdir", dir));
        t.dirs <- dir :: t.dirs);
  }

let cuts ~every_byte n =
  if every_byte then List.init (n + 1) Fun.id
  else List.sort_uniq compare (List.filter (fun c -> c <= n) [ 0; 1; 4; 8; n / 2; n - 1; n ])

(* The states one op can leave when it is the last to reach the disk:
   a write cut at each cut point, anything else whole. *)
let partial ~every_byte d = function
  | Write (ino, s) ->
      List.map (fun c -> apply d (Write (ino, String.sub s 0 c))) (cuts ~every_byte (String.length s))
  | op -> [ apply d op ]

let is_sync = function Fsync _ | Fsync_dir _ -> true | _ -> false
let dir_of = function
  | Link (name, _) | Unlink name | Rename (_, name, _) -> Some (Filename.dirname name)
  | _ -> None

(* Every disk state a crash after the first [k] ops of [log] may leave,
   deduplicated. *)
let crash_states ~model ~every_byte (log : op array) k : image list =
  let states =
    match model with
    | In_order ->
        let last_sync = ref 0 in
        for i = 0 to k - 1 do
          if is_sync log.(i) then last_sync := i + 1
        done;
        let d = ref empty and acc = ref [] in
        for i = 0 to k - 1 do
          if i >= !last_sync then acc := (!d :: partial ~every_byte !d log.(i)) @ !acc;
          d := apply !d log.(i)
        done;
        !d :: !acc
    | Reordering ->
        (* the durable names, the name ops since each directory's last
           fsync, and per inode its durable bytes and later content ops *)
        let live = ref empty and durable = ref SM.empty in
        let pending_names = ref [] and pending = ref IM.empty and base = ref IM.empty in
        for i = 0 to k - 1 do
          let op = log.(i) in
          live := apply !live op;
          match op with
          | Fsync ino ->
              base := IM.add ino (IM.find ino !live.data) !base;
              pending := IM.remove ino !pending
          | Fsync_dir dir ->
              let in_dir n = Filename.dirname n = dir in
              durable :=
                SM.union (fun _ _ l -> Some l)
                  (SM.filter (fun n _ -> not (in_dir n)) !durable)
                  (SM.filter (fun n _ -> in_dir n) !live.names);
              pending_names := List.filter (fun o -> dir_of o <> Some dir) !pending_names
          | Link (_, ino) ->
              base := IM.add ino "" !base;
              pending_names := op :: !pending_names
          | Rename _ | Unlink _ -> pending_names := op :: !pending_names
          | Write (ino, _) | Truncate (ino, _) ->
              pending :=
                IM.add ino (op :: Option.value ~default:[] (IM.find_opt ino !pending)) !pending
        done;
        let rec subsets = function
          | [] -> [ [] ]
          | x :: rest ->
              let s = subsets rest in
              s @ List.map (fun l -> x :: l) s
        in
        (* each inode's possible bytes: its durable bytes, then each
           prefix of its pending ops, the last write cut *)
        let contents ino =
          let d0 = { names = SM.empty; data = IM.singleton ino (IM.find ino !base) } in
          let ops = List.rev (Option.value ~default:[] (IM.find_opt ino !pending)) in
          let rec go d acc = function
            | [] -> d :: acc
            | op :: rest -> go (apply d op) (partial ~every_byte d op @ acc) rest
          in
          List.sort_uniq compare (List.map (fun d -> IM.find ino d.data) (go d0 [] ops))
        in
        List.concat_map
          (fun chosen ->
            let names = List.fold_left apply { names = !durable; data = IM.empty } chosen in
            let inodes = List.sort_uniq compare (List.map snd (SM.bindings names.names)) in
            List.fold_left
              (fun ds ino ->
                List.concat_map
                  (fun bytes -> List.map (fun d -> { d with data = IM.add ino bytes d.data }) ds)
                  (contents ino))
              [ names ] inodes)
          (subsets (List.rev !pending_names))
  in
  List.sort_uniq compare (List.map image states)
