(* Per-domain reusable byte buffers.

   Some hot paths need a temporary buffer on every call: decoding a
   request's binary payload, hashing a space's cells.  Allocated fresh,
   a buffer of a few kilobytes goes straight to the major heap, and at
   serving rates that garbage, not the live data, sets how large the
   heap grows.  A scratch hands each domain one buffer that is reused
   from call to call.  Buffers above [keep_limit] are handed out but not
   kept, so one large request does not pin its buffer for the life of
   the domain. *)

type t = Bytes.t ref Domain.DLS.key

let keep_limit = 1 lsl 20

let create () : t = Domain.DLS.new_key (fun () -> ref Bytes.empty)

let bytes (t : t) n =
  let r = Domain.DLS.get t in
  if Bytes.length !r >= n then !r
  else begin
    let b = Bytes.create n in
    if n <= keep_limit then r := b;
    b
  end
