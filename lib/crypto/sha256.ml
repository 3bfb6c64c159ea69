(* FIPS 180-4 SHA-256 on the compression kernel of sha256_stubs.c. *)

type digest = string

let digest_size = 32

external kernel_id : unit -> int = "aqv_sha256_kernel" [@@noalloc]
external digest_into : string list -> Bytes.t -> int = "aqv_sha256_digest_list" [@@noalloc]

external portable_digest_into : string list -> Bytes.t -> int
  = "aqv_sha256_digest_list_portable"
[@@noalloc]

external init_state : Bytes.t -> unit = "aqv_sha256_init" [@@noalloc]

external absorb : Bytes.t -> Bytes.t -> int -> string -> int = "aqv_sha256_feed" [@@noalloc]

external finish : Bytes.t -> Bytes.t -> int -> int -> Bytes.t -> unit = "aqv_sha256_finish"
[@@noalloc]

(* Picks the kernel: runs once, at module initialisation. *)
let kernel = if kernel_id () = 1 then "sha-ext" else "portable"

(* Each call hashes into its own 32 bytes: the serving stack hashes from
   many systhreads that share one domain, and no scratch is shared. *)
let digest_with into parts =
  let out = Bytes.create 32 in
  Aqv_util.Metrics.add_hash ~bytes_len:(into parts out);
  Bytes.unsafe_to_string out

let digest_list parts = digest_with digest_into parts
let digest_list_portable parts = digest_with portable_digest_into parts
let digest s = digest_list [ s ]

let hex = Aqv_util.Hex.encode

type ctx = {
  h : Bytes.t;  (* 32-byte chaining state, eight native-endian words *)
  buf : Bytes.t;  (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total_len : int;  (* bytes fed so far *)
  mutable finalized : bool;
}

let init () =
  let h = Bytes.create 32 in
  init_state h;
  { h; buf = Bytes.create 64; buf_len = 0; total_len = 0; finalized = false }

let feed ctx s =
  if ctx.finalized then invalid_arg "Sha256.feed: finalized";
  ctx.total_len <- ctx.total_len + String.length s;
  ctx.buf_len <- absorb ctx.h ctx.buf ctx.buf_len s

let copy ctx =
  if ctx.finalized then invalid_arg "Sha256.copy: finalized";
  { ctx with h = Bytes.copy ctx.h; buf = Bytes.copy ctx.buf }

let finalize ctx =
  if ctx.finalized then invalid_arg "Sha256.finalize: already finalized";
  ctx.finalized <- true;
  let out = Bytes.create 32 in
  finish ctx.h ctx.buf ctx.buf_len ctx.total_len out;
  Bytes.unsafe_to_string out
