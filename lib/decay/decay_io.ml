let to_csv d =
  let n = Decay_space.n d in
  let buf = Buffer.create (n * n * 8) in
  Buffer.add_string buf ("# name: " ^ Decay_space.name d ^ "\n");
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if j > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "%.17g" (Decay_space.decay d i j))
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

(* Raw CSV -> (name, matrix).  Cells must be numbers (NaN/Inf parse fine —
   they are data-quality issues for [Validate], not parse errors) but no
   shape or cell validation happens here: [of_csv] adds the strict shape
   check, [of_csv_repaired] hands the raw matrix to the repair pipeline. *)
let parse ?(name = "csv") text =
  let lines = String.split_on_char '\n' text in
  let name = ref name in
  let rows =
    List.filter_map
      (fun (lineno, line) ->
        let line = String.trim line in
        if line = "" then None
        else if String.length line > 0 && line.[0] = '#' then begin
          let prefix = "# name:" in
          if String.length line > String.length prefix
             && String.sub line 0 (String.length prefix) = prefix
          then
            name :=
              String.trim
                (String.sub line (String.length prefix)
                   (String.length line - String.length prefix));
          None
        end
        else
          Some
            (String.split_on_char ',' line
            |> List.mapi (fun col cell ->
                   match float_of_string_opt (String.trim cell) with
                   | Some v -> v
                   | None ->
                       invalid_arg
                         (Printf.sprintf
                            "Decay_io.of_csv: not a number: %s (line %d, \
                             column %d)"
                            (String.trim cell) lineno (col + 1)))
            |> Array.of_list))
      (List.mapi (fun i l -> (i + 1, l)) lines)
  in
  (!name, Array.of_list rows)

let check_shape matrix =
  let rows = Array.length matrix in
  if rows = 0 then
    invalid_arg "Decay_io.of_csv: empty matrix (no data rows)";
  Array.iteri
    (fun row r ->
      let got = Array.length r in
      if got <> rows then
        invalid_arg
          (Printf.sprintf
             "Decay_io.of_csv: data row %d has %d cells, expected %d (the \
              matrix has %d data rows and must be square)"
             (row + 1) got rows rows))
    matrix

let of_csv ?name text =
  let name, matrix = parse ?name text in
  check_shape matrix;
  Decay_space.of_matrix ~name matrix

let of_csv_repaired ?name ~policy text =
  let name, matrix = parse ?name text in
  Decay_space.of_matrix_repaired ~name ~policy matrix

(* Atomic: write a temp file in the target directory, then rename over
   the destination, so a crash mid-write can never leave a truncated
   file where a valid one used to be.  Every writer in this module (and
   the persistent serve store) goes through here. *)
let with_atomic_out ?(binary = false) path write =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir ".decay_io" ".tmp" in
  match
    let oc = (if binary then open_out_bin else open_out) tmp in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc);
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let save d path = with_atomic_out path (fun oc -> output_string oc (to_csv d))

let load path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_csv ~name:(Filename.basename path) text

(* ------------------------------------------------- raw binary matrices *)

(* Fixed 16-byte header: an 8-byte magic tag and the node count as a
   little-endian int64, followed by the n*n float64 cells row-major in
   IEEE-754 little-endian bit patterns — exactly the in-memory layout of
   the space's Bigarray on every supported platform, which is what makes
   {!load_raw_mmap} a zero-copy adoption of the file pages. *)
let raw_magic = "BGDECAY1"
let raw_header_len = 16

let is_raw path =
  match In_channel.with_open_bin path (fun ic -> really_input_string ic 8) with
  | magic -> magic = raw_magic
  | exception End_of_file -> false

let save_raw_fn ~n f path =
  if n < 1 then invalid_arg "Decay_io.save_raw_fn: need n >= 1";
  with_atomic_out ~binary:true path (fun oc ->
      output_string oc raw_magic;
      let hdr = Bytes.create 8 in
      Bytes.set_int64_le hdr 0 (Int64.of_int n);
      output_bytes oc hdr;
      (* One row per write: memory stays O(n) however large the matrix,
         which is what lets [bg generate --raw] emit files far beyond
         RAM for the pay-per-probe geometric constructions. *)
      let row = Bytes.create (8 * n) in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          Bytes.set_int64_le row (8 * j) (Int64.bits_of_float (f i j))
        done;
        output_bytes oc row
      done)

let save_raw d path =
  let f = Decay_space.Flat.data d in
  let n = Decay_space.n d in
  save_raw_fn ~n
    (fun i j -> Decay_space.Flat.unsafe_get f ((i * n) + j))
    path

let read_raw_header path fd =
  let hdr = Bytes.create raw_header_len in
  let got = Unix.read fd hdr 0 raw_header_len in
  if got <> raw_header_len || Bytes.sub_string hdr 0 8 <> raw_magic then
    invalid_arg
      (Printf.sprintf "Decay_io.load_raw: %s is not a raw decay matrix" path);
  let n64 = Bytes.get_int64_le hdr 8 in
  let n = Int64.to_int n64 in
  if n < 0 || Int64.of_int n <> n64 then
    invalid_arg
      (Printf.sprintf "Decay_io.load_raw: %s: invalid node count" path);
  let expected = Int64.add (Int64.of_int raw_header_len)
      (Int64.mul 8L (Int64.of_int (n * n))) in
  let size = (Unix.LargeFile.fstat fd).Unix.LargeFile.st_size in
  if size <> expected then
    invalid_arg
      (Printf.sprintf
         "Decay_io.load_raw: %s: truncated or oversized payload (%Ld bytes, \
          expected %Ld for n = %d)"
         path size expected n);
  n

let load_raw ?(validate = true) path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let n = read_raw_header path fd in
      let buf = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout (n * n) in
      let cells = n * n in
      let block = 4096 in
      let chunk = Bytes.create (8 * block) in
      let i = ref 0 in
      while !i < cells do
        let count = min block (cells - !i) in
        let want = 8 * count in
        let got = ref 0 in
        while !got < want do
          let r = Unix.read fd chunk !got (want - !got) in
          if r = 0 then
            invalid_arg
              (Printf.sprintf "Decay_io.load_raw: %s: unexpected EOF" path);
          got := !got + r
        done;
        for j = 0 to count - 1 do
          buf.{!i + j} <- Int64.float_of_bits (Bytes.get_int64_le chunk (8 * j))
        done;
        i := !i + count
      done;
      Decay_space.of_bigarray ~name:(Filename.basename path) ~validate n buf)

let load_raw_mmap ?(validate = false) path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let n = read_raw_header path fd in
      let ga =
        Unix.map_file fd ~pos:(Int64.of_int raw_header_len) Bigarray.Float64
          Bigarray.C_layout false [| n * n |]
      in
      Decay_space.of_bigarray ~name:(Filename.basename path) ~validate n
        (Bigarray.array1_of_genarray ga))

let load_repaired ~policy path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_csv_repaired ~name:(Filename.basename path) ~policy text
