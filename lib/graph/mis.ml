(* Vertex sets are sorted int lists at the API boundary.  The search runs on
   bitset adjacency rows: row [u] is [w] words of [word] bits each, bit [v]
   set when [u] and [v] are adjacent.  Sets of vertices (alive, chosen) are
   [w]-word slices of the same shape, so a degree is a popcount of a row
   masked by the alive set. *)

(* Bits per row word: all of a native 63-bit int, the width [popcount]
   assumes. *)
let word = 63

type bits = { k : int; w : int; rows : int array }

let bits k =
  if k < 0 then invalid_arg "Mis.bits: negative size";
  let w = (k + word - 1) / word in
  { k; w; rows = Array.make (k * w) 0 }

let add_edge g u v =
  if u < 0 || u >= g.k || v < 0 || v >= g.k then
    invalid_arg "Mis.add_edge: vertex out of range";
  if u = v then invalid_arg "Mis.add_edge: self-loop";
  let w = g.w in
  g.rows.((u * w) + (v / word)) <- g.rows.((u * w) + (v / word)) lor (1 lsl (v mod word));
  g.rows.((v * w) + (u / word)) <- g.rows.((v * w) + (u / word)) lor (1 lsl (u mod word))

let of_graph gr =
  let k = Graph.n gr in
  let g = bits k in
  for u = 0 to k - 1 do
    for v = u + 1 to k - 1 do
      if Graph.has_edge gr u v then add_edge g u v
    done
  done;
  g

(* SWAR popcount of a 63-bit int.  The top pair (bits 62 and 63) needs no
   mask bit: bit 63 does not exist, so [x lsr 1] brings a zero there. *)
let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

(* Index of the one set bit of [b]. *)
let[@inline] bit_index b = popcount (b - 1)

(* Number of vertices of the set at [set.(off) ..] adjacent to [u]. *)
let[@inline] degree g u set off =
  let d = ref 0 in
  let row = u * g.w in
  for i = 0 to g.w - 1 do
    d := !d + popcount (Array.unsafe_get g.rows (row + i) land Array.unsafe_get set (off + i))
  done;
  !d

let to_list g set =
  let acc = ref [] in
  for v = g.k - 1 downto 0 do
    if (set.(v / word) lsr (v mod word)) land 1 = 1 then acc := v :: !acc
  done;
  !acc

let fill_all g set =
  for v = 0 to g.k - 1 do
    set.(v / word) <- set.(v / word) lor (1 lsl (v mod word))
  done

(* Minimum-degree greedy: repeatedly take the alive vertex of least
   alive-degree (the lowest index on ties), then kill it and its alive
   neighbours.  The chosen vertices are left set in [chosen]. *)
let greedy_into g chosen =
  let w = g.w in
  let alive = Array.make w 0 in
  fill_all g alive;
  let remaining = ref g.k and picked = ref 0 in
  while !remaining > 0 do
    let best = ref (-1) and best_deg = ref max_int in
    let i = ref 0 in
    while !i < w && !best_deg > 0 do
      let x = ref alive.(!i) in
      while !x <> 0 && !best_deg > 0 do
        let b = !x land (- !x) in
        x := !x lxor b;
        let u = (!i * word) + bit_index b in
        let d = degree g u alive 0 in
        if d < !best_deg then begin
          best := u;
          best_deg := d
        end
      done;
      incr i
    done;
    let u = !best in
    chosen.(u / word) <- chosen.(u / word) lor (1 lsl (u mod word));
    incr picked;
    for i = 0 to w - 1 do
      alive.(i) <- alive.(i) land lnot g.rows.((u * w) + i)
    done;
    alive.(u / word) <- alive.(u / word) land lnot (1 lsl (u mod word));
    remaining := !remaining - 1 - !best_deg
  done;
  !picked

let greedy_bits g =
  let chosen = Array.make g.w 0 in
  ignore (greedy_into g chosen);
  to_list g chosen

let greedy_size g = greedy_into g (Array.make g.w 0)

(* Branch and bound.  Depth [d] keeps its alive set in
   [alive.(d*w) .. alive.(d*w + w - 1)]; a branch removes at least one
   alive vertex, so depth never exceeds [k]. *)
type search = {
  g : bits;
  alive : int array;
  avail : int array; (* clique cover: alive vertices not yet covered *)
  common : int array; (* clique cover: common neighbours of a clique *)
  chosen : int array;
  record : bool;
  mutable best_size : int;
  mutable best : int list;
}

(* Whether a greedy clique cover of the alive set at [off] needs more than
   [need] cliques.  Each clique starts at the lowest uncovered alive vertex
   and takes, in increasing order, every uncovered alive vertex adjacent to
   all its members; the clique count bounds the independence number of the
   alive set from above. *)
let cover_exceeds s off need =
  let g = s.g and w = s.g.w in
  let avail = s.avail and common = s.common in
  Array.blit s.alive off avail 0 w;
  let cliques = ref 0 and i = ref 0 in
  while !i < w && !cliques <= need do
    if avail.(!i) = 0 then incr i
    else begin
      let b = avail.(!i) land (- avail.(!i)) in
      let u = (!i * word) + bit_index b in
      avail.(!i) <- avail.(!i) lxor b;
      incr cliques;
      let row = u * w in
      let any = ref 0 in
      for j = 0 to w - 1 do
        let c = avail.(j) land g.rows.(row + j) in
        common.(j) <- c;
        any := !any lor c
      done;
      let j = ref !i in
      while !any <> 0 do
        while common.(!j) = 0 do incr j done;
        let b = common.(!j) land (- common.(!j)) in
        let v = (!j * word) + bit_index b in
        avail.(!j) <- avail.(!j) lxor b;
        let row = v * w in
        any := 0;
        for l = !j to w - 1 do
          let c = common.(l) land g.rows.(row + l) in
          common.(l) <- c;
          any := !any lor c
        done
      done
    end
  done;
  !cliques > need

let rec go s depth alive_count chosen_count =
  let g = s.g and w = s.g.w in
  if chosen_count > s.best_size then begin
    s.best_size <- chosen_count;
    if s.record then s.best <- to_list g s.chosen
  end;
  let off = depth * w in
  if alive_count > 0 && cover_exceeds s off (s.best_size - chosen_count) then begin
    (* Branch on a maximum-degree alive vertex, the lowest index on ties. *)
    let alive = s.alive in
    let pick = ref (-1) and pick_deg = ref (-1) in
    for i = 0 to w - 1 do
      let x = ref alive.(off + i) in
      while !x <> 0 do
        let b = !x land (- !x) in
        x := !x lxor b;
        let u = (i * word) + bit_index b in
        let d = degree g u alive off in
        if d > !pick_deg then begin
          pick := u;
          pick_deg := d
        end
      done
    done;
    let u = !pick in
    let ui = u / word and ub = 1 lsl (u mod word) in
    let next = off + w in
    (* Include u: kill u and its alive neighbourhood. *)
    for i = 0 to w - 1 do
      alive.(next + i) <- alive.(off + i) land lnot g.rows.((u * w) + i)
    done;
    alive.(next + ui) <- alive.(next + ui) land lnot ub;
    s.chosen.(ui) <- s.chosen.(ui) lor ub;
    go s (depth + 1) (alive_count - 1 - !pick_deg) (chosen_count + 1);
    s.chosen.(ui) <- s.chosen.(ui) land lnot ub;
    (* Exclude u. *)
    Array.blit alive off alive next w;
    alive.(next + ui) <- alive.(next + ui) land lnot ub;
    go s (depth + 1) (alive_count - 1) chosen_count
  end

let search g ~record ~best ~best_size =
  let w = g.w in
  let s =
    {
      g;
      alive = Array.make ((g.k + 1) * w) 0;
      avail = Array.make w 0;
      common = Array.make w 0;
      chosen = Array.make w 0;
      record;
      best_size;
      best;
    }
  in
  fill_all g s.alive;
  go s 0 g.k 0;
  s

let exact_bits g =
  let best = greedy_bits g in
  (search g ~record:true ~best ~best_size:(List.length best)).best

let exact_size ?(at_least = 0) g =
  if g.k <= at_least then at_least
  else (search g ~record:false ~best:[] ~best_size:at_least).best_size

let greedy gr = greedy_bits (of_graph gr)

let exact ?(limit = 64) gr =
  if Graph.n gr > limit then invalid_arg "Mis.exact: graph exceeds size limit";
  exact_bits (of_graph gr)

let independence_number g = List.length (exact g)
