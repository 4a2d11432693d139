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

type state = { s : string; mutable pos : int }

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

let parse_string_raw st =
  expect st '"';
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

let rec parse_value st =
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
        let rec members acc =
          skip_ws st;
          let k = parse_string_raw st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              expect st ',';
              members ((k, v) :: acc)
          | Some '}' ->
              expect st '}';
              List.rev ((k, v) :: acc)
          | _ -> fail "expected , or } at %d" st.pos
        in
        Obj (members [])
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
          let v = parse_value st in
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

let parse s =
  let st = { s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail "trailing garbage at %d" st.pos;
  v

(* One JSON value per non-empty line. *)
let parse_lines text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map parse

let read_file path = In_channel.with_open_text path In_channel.input_all

(* ----------------------------------------------------------- emission *)

let buf_add_string b s =
  Buffer.add_char b '"';
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

(* --------------------------------------------------------- accessors *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None
let bool_ = function Bool b -> Some b | _ -> None
let mem_str k v = Option.bind (member k v) str
let mem_num k v = Option.bind (member k v) num
let mem_bool k v = Option.bind (member k v) bool_
