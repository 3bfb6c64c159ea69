let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let string s =
  let t = Lazy.force table in
  let c = ref 0xffffffff in
  for i = 0 to String.length s - 1 do
    c := t.((!c lxor Char.code (String.unsafe_get s i)) land 0xff)
         lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let be32 v =
  String.init 4 (fun i -> Char.chr ((v lsr (24 - (8 * i))) land 0xff))

let read_be32 s pos =
  if pos < 0 || pos + 4 > String.length s then invalid_arg "Crc32.read_be32";
  let b i = Char.code s.[pos + i] in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3
