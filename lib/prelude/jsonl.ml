(* A minimal dependency-free JSON / JSONL reader and writer.

   The toolchain ships no JSON library, and the formats this repo deals
   in are deliberately small — the [Obs] trace lines, the wire protocol,
   bench records, speedscope profiles — so a ~100-line
   recursive-descent parser plus a direct serializer keep the trace
   tooling (and the test suite, which uses this same module)
   dependency-free.  It still parses full JSON — arrays, nesting,
   escapes — so round-trip tests exercise a real parser, not a
   regexp. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* [left] is where [parse_in_place] left its string: offset and length
   in [s]. *)
type state = {
  s : string;
  mutable pos : int;
  mutable left : (int * int) option;
}

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.s
    && match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | Some c' -> fail "expected %c at %d, got %c" c st.pos c'
  | None -> fail "expected %c at %d, got end of input" c st.pos

let parse_literal st word v =
  let n = String.length word in
  if
    st.pos + n <= String.length st.s
    && String.sub st.s st.pos n = word
  then begin
    st.pos <- st.pos + n;
    v
  end
  else fail "bad literal at %d" st.pos

(* The escape-aware loop: from [st.pos] to the closing quote. *)
let parse_escaped st =
  let b = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.s then fail "unterminated string";
    let c = st.s.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents b
    | '\\' ->
        if st.pos >= String.length st.s then fail "dangling escape";
        let e = st.s.[st.pos] in
        st.pos <- st.pos + 1;
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
            if st.pos + 4 > String.length st.s then fail "bad \\u escape";
            let hex = String.sub st.s st.pos 4 in
            st.pos <- st.pos + 4;
            let code = int_of_string ("0x" ^ hex) in
            (* The traces only escape control characters, all < 0x80;
               other code points are passed through as '?' rather than
               implementing UTF-8 encoding nobody writes. *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else Buffer.add_char b '?'
        | c -> fail "bad escape \\%c" c);
        go ()
    | c -> Buffer.add_char b c; go ()
  in
  go ()

(* The index of the closing quote of the string whose body starts at
   [i], or [None] if an escape or the end of input comes first. *)
let rec plain_end s i =
  if i >= String.length s then None
  else
    match String.unsafe_get s i with
    | '"' -> Some i
    | '\\' -> None
    | _ -> plain_end s (i + 1)

(* A string with no escapes (every wire field but free text, and all of
   a base64 payload) is taken with one [String.sub]; any other goes
   through the escape-aware loop. *)
let parse_string_raw st =
  expect st '"';
  match plain_end st.s st.pos with
  | Some stop ->
      let v = String.sub st.s st.pos (stop - st.pos) in
      st.pos <- stop + 1;
      v
  | None -> parse_escaped st

let parse_number st =
  let start = st.pos in
  let num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.s && num_char st.s.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then fail "expected number at %d" start;
  match float_of_string_opt (String.sub st.s start (st.pos - start)) with
  | Some f -> Num f
  | None -> fail "bad number at %d" start

(* The string value at the parser's position, left in place when it has
   no escapes: [Str ""] stands for it and [st.left] locates it. *)
let rec leave_string st =
  skip_ws st;
  match if peek st = Some '"' then plain_end st.s (st.pos + 1) else None with
  | Some stop ->
      st.left <- Some (st.pos + 1, stop - st.pos - 1);
      st.pos <- stop + 1;
      Str ""
  | None -> parse_value st []

(* [path] is what is left of [parse_in_place]'s path at this value: the
   first member named by its head is followed, and at its end the
   string is left in place. *)
and parse_value st path =
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input"
  | Some '"' -> Str (parse_string_raw st)
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some '{' ->
      expect st '{';
      skip_ws st;
      if peek st = Some '}' then begin
        expect st '}';
        Obj []
      end
      else begin
        let rec members acc followed =
          skip_ws st;
          let k = parse_string_raw st in
          skip_ws st;
          expect st ':';
          let follow =
            (not followed) && match path with p :: _ -> p = k | [] -> false
          in
          let v =
            match path with
            | [ _ ] when follow -> leave_string st
            | _ :: rest when follow -> parse_value st rest
            | _ -> parse_value st []
          in
          skip_ws st;
          match peek st with
          | Some ',' ->
              expect st ',';
              members ((k, v) :: acc) (followed || follow)
          | Some '}' ->
              expect st '}';
              List.rev ((k, v) :: acc)
          | _ -> fail "expected , or } at %d" st.pos
        in
        Obj (members [] false)
      end
  | Some '[' ->
      expect st '[';
      skip_ws st;
      if peek st = Some ']' then begin
        expect st ']';
        Arr []
      end
      else begin
        let rec elems acc =
          let v = parse_value st [] in
          skip_ws st;
          match peek st with
          | Some ',' ->
              expect st ',';
              elems (v :: acc)
          | Some ']' ->
              expect st ']';
              List.rev (v :: acc)
          | _ -> fail "expected , or ] at %d" st.pos
        in
        Arr (elems [])
      end
  | Some _ -> parse_number st

let parse_in_place ~path s =
  let st = { s; pos = 0; left = None } in
  let v = parse_value st path in
  skip_ws st;
  if st.pos <> String.length s then fail "trailing garbage at %d" st.pos;
  (v, st.left)

let parse s = fst (parse_in_place ~path:[] s)

(* One JSON value per non-empty line. *)
let parse_lines text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map parse

let read_file path = In_channel.with_open_text path In_channel.input_all

(* ----------------------------------------------------------- emission *)

(* No byte of [s] from [i] on needs an escape. *)
let rec plain_from s i =
  i >= String.length s
  || (let c = String.unsafe_get s i in
      c <> '"' && c <> '\\' && c >= ' ')
     && plain_from s (i + 1)

(* A string with nothing to escape (a base64 payload, most field
   values) is copied in one piece. *)
let buf_add_string b s =
  Buffer.add_char b '"';
  if plain_from s 0 then Buffer.add_string b s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
  Buffer.add_char b '"'

let buf_add_num b f =
  if Float.is_integer f && Float.abs f < 1e15 then
    (* Integral values print as integers: ids, counts, bucket indices
       must not grow a ".000000" suffix on the way out. *)
    Buffer.add_string b (Printf.sprintf "%.0f" f)
  else if Float.is_finite f then
    (* %.17g round-trips every double. *)
    Buffer.add_string b (Printf.sprintf "%.17g" f)
  else
    (* JSON has no inf/nan literals; emit them as strings so the output
       always reparses. *)
    buf_add_string b (Printf.sprintf "%h" f)

let rec buf_add b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Num f -> buf_add_num b f
  | Str s -> buf_add_string b s
  | Arr vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          buf_add b v)
        vs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          buf_add_string b k;
          Buffer.add_char b ':';
          buf_add b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  buf_add b v;
  Buffer.contents b

(* ------------------------------------------------------------ base64 *)

(* Binary payloads (the wire's float64 matrices) travel inside a JSON
   string as RFC 4648 base64: the standard alphabet, '=' padding, no
   line breaks. *)
let b64_alphabet =
  "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

(* Each byte's sextet, -1 outside the alphabet.  '=' is -1 too: padding
   is recognised by its position, so '=' anywhere else is a bad byte. *)
let b64_sextet =
  let t = Array.make 256 (-1) in
  String.iteri (fun i c -> t.(Char.code c) <- i) b64_alphabet;
  t

(* The unchecked accessors below are in bounds by construction: a group
   index ranges over whole groups of the input and output. *)
let b64_put out o w =
  Bytes.unsafe_set out o (String.unsafe_get b64_alphabet (w land 63))

let base64_encode s =
  let n = String.length s in
  let out = Bytes.create ((n + 2) / 3 * 4) in
  let full = n / 3 in
  for g = 0 to full - 1 do
    let i = 3 * g and o = 4 * g in
    let w =
      (Char.code (String.unsafe_get s i) lsl 16)
      lor (Char.code (String.unsafe_get s (i + 1)) lsl 8)
      lor Char.code (String.unsafe_get s (i + 2))
    in
    b64_put out o (w lsr 18);
    b64_put out (o + 1) (w lsr 12);
    b64_put out (o + 2) (w lsr 6);
    b64_put out (o + 3) w
  done;
  let rest = n - (3 * full) in
  if rest > 0 then begin
    let i = 3 * full and o = 4 * full in
    let w =
      (Char.code s.[i] lsl 16)
      lor if rest = 2 then Char.code s.[i + 1] lsl 8 else 0
    in
    b64_put out o (w lsr 18);
    b64_put out (o + 1) (w lsr 12);
    if rest = 2 then b64_put out (o + 2) (w lsr 6)
    else Bytes.set out (o + 2) '=';
    Bytes.set out (o + 3) '='
  end;
  Bytes.unsafe_to_string out

let b64_get s i =
  Array.unsafe_get b64_sextet (Char.code (String.unsafe_get s i))

(* Called once a group holds a byte outside the alphabet: name the
   first one, counted from [pos]. *)
let b64_bad s pos i =
  let rec first k =
    if b64_sextet.(Char.code s.[k]) < 0 then k else first (k + 1)
  in
  let k = first i in
  fail "base64: bad byte %C at %d" s.[k] (k - pos)

let base64_decode_into s pos len out =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Jsonl.base64_decode_into: range outside the string";
  if len mod 4 <> 0 then fail "base64: length %d is not a multiple of 4" len;
  let pad =
    if len = 0 || s.[pos + len - 1] <> '=' then 0
    else if s.[pos + len - 2] = '=' then 2
    else 1
  in
  let m = (len / 4 * 3) - pad in
  if Bytes.length out < m then
    invalid_arg "Jsonl.base64_decode_into: buffer too short";
  let full = (len / 4) - if pad > 0 then 1 else 0 in
  for g = 0 to full - 1 do
    let i = pos + (4 * g) and o = 3 * g in
    let a = b64_get s i and b = b64_get s (i + 1)
    and c = b64_get s (i + 2) and d = b64_get s (i + 3) in
    if (a lor b lor c lor d) < 0 then b64_bad s pos i;
    let w = (a lsl 18) lor (b lsl 12) lor (c lsl 6) lor d in
    Bytes.unsafe_set out o (Char.unsafe_chr (w lsr 16));
    Bytes.unsafe_set out (o + 1) (Char.unsafe_chr ((w lsr 8) land 255));
    Bytes.unsafe_set out (o + 2) (Char.unsafe_chr (w land 255))
  done;
  if pad > 0 then begin
    (* The last group: two sextets and "==" for one byte, three and "="
       for two. *)
    let i = pos + (4 * full) and o = 3 * full in
    let a = b64_get s i and b = b64_get s (i + 1)
    and c = if pad = 1 then b64_get s (i + 2) else 0 in
    if (a lor b lor c) < 0 then b64_bad s pos i;
    let w = (a lsl 18) lor (b lsl 12) lor (c lsl 6) in
    Bytes.set out o (Char.chr (w lsr 16));
    if pad = 1 then Bytes.set out (o + 1) (Char.chr ((w lsr 8) land 255))
  end;
  m

(* --------------------------------------------------------- accessors *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None
let bool_ = function Bool b -> Some b | _ -> None
let mem_str k v = Option.bind (member k v) str
let mem_num k v = Option.bind (member k v) num
let mem_bool k v = Option.bind (member k v) bool_
