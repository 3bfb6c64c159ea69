(** The store's one I/O seam. [Wal], [Snapshot] and [Store] reach the
    file system only through a [t]: production passes {!unix}; tests
    pass a wrapper that injects faults, or an in-memory file system that
    records every operation so that every crash point can be checked.
    Every operation raises [Unix.Unix_error] on failure. *)

type file = {
  write : string -> unit;  (** the whole string, at the end of the file *)
  fsync : unit -> unit;
  truncate : int -> unit;
  close : unit -> unit;
}

type mode =
  | Create  (** create, or truncate an existing file *)
  | Append  (** an existing file; every write lands at its end *)

type t = {
  open_file : string -> mode -> file;
  read : string -> string;
      (** the whole file; a file that shrinks during the read comes back
          short, never as an exception *)
  rename : string -> string -> unit;
  fsync_dir : string -> unit;
  remove : string -> unit;
  exists : string -> bool;
  mkdir : string -> unit;
}

let unix_file path fd =
  {
    write =
      (fun s ->
        let n = String.length s in
        if Unix.write_substring fd s 0 n <> n then
          raise (Unix.Unix_error (Unix.EIO, "write", path)));
    fsync = (fun () -> Unix.fsync fd);
    truncate = Unix.ftruncate fd;
    close = (fun () -> Unix.close fd);
  }

(* Sized once from fstat, read to EOF: a concurrent rollback or tail
   truncation (fsck beside a live server) yields a short string, which
   the readers classify as a torn tail or a truncated snapshot. *)
let unix_read path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let n = (Unix.fstat fd).Unix.st_size in
      let buf = Bytes.create n in
      let rec go off =
        if off = n then off
        else match Unix.read fd buf off (n - off) with 0 -> off | k -> go (off + k)
      in
      let got = go 0 in
      if got = n then Bytes.unsafe_to_string buf else Bytes.sub_string buf 0 got)

(* A filesystem that cannot fsync a directory refuses with EINVAL; the
   rename itself is still atomic there, so that refusal is best effort.
   Any other failure raises: the caller must not go on as if the rename
   were durable. *)
let unix_fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> try Unix.fsync fd with Unix.Unix_error (Unix.EINVAL, _, _) -> ())

let unix =
  {
    open_file =
      (fun path mode ->
        let flags =
          match mode with
          | Create -> [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
          | Append -> [ Unix.O_WRONLY; Unix.O_APPEND ]
        in
        unix_file path (Unix.openfile path flags 0o644));
    read = unix_read;
    rename = Unix.rename;
    fsync_dir = unix_fsync_dir;
    remove = Unix.unlink;
    exists = Sys.file_exists;
    mkdir = (fun dir -> Unix.mkdir dir 0o755);
  }

(* [f ()], with the OS's refusal as the store's typed error. *)
let guard file f =
  try f ()
  with Unix.Unix_error (e, _, _) ->
    Error.fail (Error.Io_error { file; reason = Unix.error_message e })

(* What a reader reports when the file cannot be read at all; the
   reason keeps the path, as the channel-based reader's did. *)
let read_error file e =
  Error.Io_error { file; reason = file ^ ": " ^ Unix.error_message e }

(** Atomic publish: write a temp file beside [path], fsync it, rename it
    over [path], fsync the directory. A crash leaves the old file or the
    new one, never a torn one. @raise Error.Error ([Io_error]). *)
let write_file io ~path contents =
  let dir = Filename.dirname path in
  let tmp = Filename.concat dir (".aqv-" ^ Filename.basename path ^ ".part") in
  let committed = ref false in
  guard path (fun () ->
      Fun.protect
        ~finally:(fun () ->
          if not !committed then try io.remove tmp with Unix.Unix_error _ -> ())
        (fun () ->
          let f = io.open_file tmp Create in
          Fun.protect
            ~finally:(fun () -> try f.close () with Unix.Unix_error _ -> ())
            (fun () ->
              f.write contents;
              f.fsync ());
          io.rename tmp path;
          committed := true;
          io.fsync_dir dir))
