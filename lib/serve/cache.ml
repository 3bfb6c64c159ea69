(* A hashtable that is cleared when it reaches [capacity]: the replies
   a workload comes back to are admitted again at their next two
   requests, and nothing is kept per entry to order an eviction.

   In front of it sits a doorkeeper: a fixed array of key fingerprints
   ([Hashtbl.hash key] at slot [hash land door_mask]). A miss is cached
   only when its fingerprint already sits in its slot, that is on the
   key's second offer; any other miss just records the fingerprint. So
   one-off requests never fill the table, and cost a hash and a store
   instead of a table entry. A collision can only admit a reply early:
   the table is still keyed by the full key. The door forgets the same
   way the table does, all at once. *)

type t = {
  tbl : (string, string) Hashtbl.t;
  door : int array;  (* fingerprints seen once; -1 = empty *)
  mutable first_offers : int;  (* since the door was last cleared *)
  mu : Mutex.t;
}

let capacity = 1024
let door_mask = (1 lsl 14) - 1

let create () =
  {
    tbl = Hashtbl.create capacity;
    door = Array.make (door_mask + 1) (-1);
    first_offers = 0;
    mu = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let find t key = locked t (fun () -> Hashtbl.find_opt t.tbl key)

(* true on the key's second offer; otherwise remembers its fingerprint,
   in a door cleared after as many first offers as it has slots *)
let admit t key =
  let h = Hashtbl.hash key in
  let slot = h land door_mask in
  t.door.(slot) = h
  || begin
    t.first_offers <- t.first_offers + 1;
    if t.first_offers > door_mask then begin
      Array.fill t.door 0 (door_mask + 1) (-1);
      t.first_offers <- 0
    end;
    t.door.(slot) <- h;
    false
  end

let add t key value =
  locked t (fun () ->
      let cached = Hashtbl.mem t.tbl key in
      if cached || admit t key then begin
        if (not cached) && Hashtbl.length t.tbl >= capacity then Hashtbl.clear t.tbl;
        Hashtbl.replace t.tbl key (value ())
      end)
