(* One-shot fault injection as an [Io.t] wrapper. Recovery tests need to
   know exactly what the disk looks like afterwards, so a fault is
   precise ("the next write tears after 5 bytes"), armed once and
   consumed by the next operation it applies to. *)

module Io = Aqv_store.Io

type action =
  | Fail_write  (** the next write raises before any byte reaches disk *)
  | Torn_write of int
      (** the next write stores only its first [n] bytes, then the
          process "crashes": that write and every later operation raise *)
  | Bit_flip of int
      (** bit [k] of the next write is flipped; the write succeeds
          (silent media corruption) *)
  | Short_read of int  (** the next read returns at most [n] bytes *)

type t = { mutable armed : action option; mutable crashed : bool }

let create () = { armed = None; crashed = false }
let arm t a = t.armed <- Some a

(* The file system comes back after a torn write while the process's
   handles keep their state: what the store itself does with a handle
   whose rollback failed is then observable. *)
let revive t = t.crashed <- false

(* Consume the armed action if [pick] takes it: an armed [Short_read]
   survives an intervening write, and a write fault a read. *)
let take t pick =
  match Option.bind t.armed pick with
  | Some _ as a ->
      t.armed <- None;
      a
  | None -> None

let write_fault = function
  | (Fail_write | Torn_write _ | Bit_flip _) as a -> Some a
  | Short_read _ -> None

let read_fault = function Short_read n -> Some n | _ -> None

let failed what = raise (Unix.Unix_error (Unix.EIO, what, "injected"))

let flip_bit k s =
  let b = Bytes.of_string s in
  let i = k / 8 in
  if i < Bytes.length b then
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (k mod 8))));
  Bytes.to_string b

(* [io] with [t]'s faults in front of it. Once a torn write has crashed
   the process, every operation raises except [close] (the OS releases a
   dead process's descriptors). *)
let wrap t (io : Io.t) : Io.t =
  let live what f = if t.crashed then failed what else f () in
  let wrap_file (f : Io.file) : Io.file =
    {
      write =
        (fun s ->
          live "write" (fun () ->
              match take t write_fault with
              | Some Fail_write -> failed "write"
              | Some (Torn_write n) ->
                  f.write (String.sub s 0 (min n (String.length s)));
                  t.crashed <- true;
                  failed "write"
              | Some (Bit_flip k) -> f.write (flip_bit k s)
              | Some (Short_read _) | None -> f.write s));
      fsync = (fun () -> live "fsync" f.fsync);
      truncate = (fun n -> live "ftruncate" (fun () -> f.truncate n));
      close = f.close;
    }
  in
  {
    open_file = (fun path mode -> live "open" (fun () -> wrap_file (io.open_file path mode)));
    read =
      (fun path ->
        live "read" (fun () ->
            let data = io.read path in
            match take t read_fault with
            | Some n when n < String.length data -> String.sub data 0 n
            | _ -> data));
    rename = (fun a b -> live "rename" (fun () -> io.rename a b));
    fsync_dir = (fun d -> live "fsync_dir" (fun () -> io.fsync_dir d));
    remove = (fun p -> live "remove" (fun () -> io.remove p));
    exists = (fun p -> live "exists" (fun () -> io.exists p));
    mkdir = (fun d -> live "mkdir" (fun () -> io.mkdir d));
  }
