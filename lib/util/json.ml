type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------ parser ------------------------------ *)

exception Parse_error of string * int

let fail pos msg = raise (Parse_error (msg, pos))

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let n = String.length st.src in
  while
    st.pos < n
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance st
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st.pos (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st.pos (Printf.sprintf "expected '%s'" word)

(* encode a Unicode code point as UTF-8 *)
let utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek st with
    | Some ('0' .. '9' as c) -> v := (!v * 16) + (Char.code c - Char.code '0')
    | Some ('a' .. 'f' as c) -> v := (!v * 16) + (Char.code c - Char.code 'a' + 10)
    | Some ('A' .. 'F' as c) -> v := (!v * 16) + (Char.code c - Char.code 'A' + 10)
    | _ -> fail st.pos "expected hex digit");
    advance st
  done;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st.pos "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | Some '"' -> Buffer.add_char buf '"'; advance st
      | Some '\\' -> Buffer.add_char buf '\\'; advance st
      | Some '/' -> Buffer.add_char buf '/'; advance st
      | Some 'b' -> Buffer.add_char buf '\b'; advance st
      | Some 'f' -> Buffer.add_char buf '\012'; advance st
      | Some 'n' -> Buffer.add_char buf '\n'; advance st
      | Some 'r' -> Buffer.add_char buf '\r'; advance st
      | Some 't' -> Buffer.add_char buf '\t'; advance st
      | Some 'u' ->
        advance st;
        let cp = hex4 st in
        let cp =
          if cp >= 0xd800 && cp <= 0xdbff then begin
            (* high surrogate: a low surrogate must follow *)
            expect st '\\';
            expect st 'u';
            let lo = hex4 st in
            if lo < 0xdc00 || lo > 0xdfff then fail st.pos "unpaired surrogate";
            0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
          end
          else if cp >= 0xdc00 && cp <= 0xdfff then fail st.pos "unpaired surrogate"
          else cp
        in
        utf8 buf cp
      | _ -> fail st.pos "bad escape");
      go ()
    | Some c when Char.code c < 0x20 -> fail st.pos "control character in string"
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  if peek st = Some '-' then advance st;
  let digits () =
    let saw = ref false in
    let rec go () =
      match peek st with
      | Some '0' .. '9' ->
        saw := true;
        advance st;
        go ()
      | _ -> ()
    in
    go ();
    if not !saw then fail st.pos "expected digit"
  in
  digits ();
  (match peek st with
  | Some '.' ->
    is_float := true;
    advance st;
    digits ()
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') ->
    is_float := true;
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | _ -> ());
    digits ()
  | _ -> ());
  let lexeme = String.sub st.src start (st.pos - start) in
  if !is_float then Float (float_of_string lexeme)
  else match int_of_string_opt lexeme with
    | Some n -> Int n
    | None -> Float (float_of_string lexeme)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st.pos "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          fields ((key, v) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((key, v) :: acc)
        | _ -> fail st.pos "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let rec elems acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elems (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> fail st.pos "expected ',' or ']'"
      in
      List (elems [])
    end
  | Some '"' -> String (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st.pos (Printf.sprintf "unexpected '%c'" c)

let parse s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos < String.length s then
      Error (Printf.sprintf "Json: trailing garbage at byte %d" st.pos)
    else Ok v
  | exception Parse_error (msg, pos) ->
    Error (Printf.sprintf "Json: %s at byte %d" msg pos)

let parse_exn s =
  match parse s with Ok v -> v | Error msg -> failwith msg

(* ------------------------------ printer ----------------------------- *)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* up to 12 significant digits, always re-parseable as a float: "20."
   would be invalid JSON and "20" would re-parse as an Int, so integral
   values get an explicit ".0" *)
let float_str x =
  if not (Float.is_finite x) then invalid_arg "Json.to_string: non-finite float";
  let s = Printf.sprintf "%.12g" x in
  if String.exists (function '.' | 'e' | 'E' -> true | _ -> false) s then s
  else s ^ ".0"

let rec to_string = function
  | Null -> "null"
  | Bool true -> "true"
  | Bool false -> "false"
  | Int n -> string_of_int n
  | Float x -> float_str x
  | String s -> "\"" ^ escape s ^ "\""
  | List vs -> "[" ^ String.concat ", " (List.map to_string vs) ^ "]"
  | Obj fields ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" (escape k) (to_string v)) fields)
    ^ "}"

(* ----------------------------- accessors ---------------------------- *)

let to_int = function Int n -> Some n | _ -> None

let to_float = function
  | Float x -> Some x
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_str = function String s -> Some s | _ -> None
let to_obj = function Obj fields -> Some fields | _ -> None
