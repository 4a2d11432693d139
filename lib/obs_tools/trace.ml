(* Offline analysis of Bg_prelude.Obs JSONL traces.

   A trace is read back into a span forest (children carry a [parent]
   id; spans opened inside Parallel workers are roots of their own
   domain), then served three ways:

   - [aggregate]/[report_table]: one row per span *kind* (name) with
     count, total / self / child wall time, allocation (when the trace
     was recorded under [Obs.set_profile true]) and p50/p99 estimated
     from the same log2 bucketing the live metrics registry uses — so
     offline quantiles and online histogram flushes are comparable.
   - [folded]/[speedscope]: flamegraph.pl folded stacks and speedscope
     evented-profile JSON (one profile per domain).
   - [diff_rows]/[diff_table]: per-kind regression deltas between two
     traces.

   Self time is defined as [dur - min(dur, sum of children dur)], so
   self + child = total holds exactly per span (and therefore per kind);
   clock jitter between closely spaced gettimeofday readings can only
   shrink self time, never produce negative rows. *)

module Table = Bg_prelude.Table
module Obs = Bg_prelude.Obs
module Jsonl = Bg_prelude.Jsonl

type span = {
  id : int;
  parent : int;
  domain : int;
  name : string;
  start_s : float;
  dur_s : float;
  ok : bool;
  attrs : (string * Jsonl.t) list;
}

let span_of_event e =
  match Jsonl.mem_str "type" e with
  | Some "span" ->
      let num k = Jsonl.mem_num k e in
      let int_field k = Option.map int_of_float (num k) in
      (match (int_field "id", num "start_s", num "dur_s") with
      | Some id, Some start_s, Some dur_s ->
          Some
            {
              id;
              parent = Option.value ~default:0 (int_field "parent");
              domain = Option.value ~default:0 (int_field "domain");
              name = Option.value ~default:"?" (Jsonl.mem_str "name" e);
              start_s;
              dur_s = Float.max 0. dur_s;
              ok = Option.value ~default:true (Jsonl.mem_bool "ok" e);
              attrs =
                (match Jsonl.member "attrs" e with
                | Some (Jsonl.Obj kvs) -> kvs
                | _ -> []);
            }
      | _ -> None)
  | _ -> None

let spans events = List.filter_map span_of_event events
let load_events path = Jsonl.parse_lines (Jsonl.read_file path)
let load path = spans (load_events path)

let attr_num sp k = Option.bind (List.assoc_opt k sp.attrs) Jsonl.num

let attr_str sp k =
  match List.assoc_opt k sp.attrs with Some (Jsonl.Str s) -> Some s | _ -> None

let alloc_bytes sp = attr_num sp "gc.alloc_bytes"
let trace_id sp = attr_str sp "trace_id"

let kinds spans =
  List.sort_uniq String.compare (List.map (fun sp -> sp.name) spans)

(* ------------------------------------------------------- multi-file merge *)

(* Merge per-process trace files into one causal forest.  Span ids are
   process-local (each process numbers from 1), so every file's ids are
   first remapped into one dense namespace; local parent links follow
   their file's map.  Then the cross-process links close: a span
   carrying BOTH a [trace_id] and a [parent_span] attribute is a remote
   child (a server span whose parent lives in the client's file — the
   wire carried the client span's id as [parent_span]); its parent is
   the span with the same [trace_id] attribute, NO [parent_span]
   attribute, and the matching {e original} id.  Client-side spans
   (client.request / client.attempt) are exactly the link targets: they
   name the trace but were not caused remotely.  An unmatched remote
   child (its client file wasn't given) stays a root — the merge
   degrades, never drops. *)
let merge files =
  let next = ref 1 in
  let targets : (string * int, int) Hashtbl.t = Hashtbl.create 256 in
  let merged =
    List.concat_map
      (fun spans ->
        (* One file may hold several process incarnations appended back
           to back (every supervised worker opens its trace file in
           append mode), each restarting span ids from 1.  Within one
           process every span id closes exactly once, so seeing an id
           close a second time marks an incarnation boundary: reset the
           remap there, or incarnation 2's parent links would resolve
           into incarnation 1's spans.  Children close before parents,
           so a parent referenced before its own line gets its merged id
           allocated at first reference. *)
        let map = Hashtbl.create 256 in
        let emitted = Hashtbl.create 256 in
        let remap id =
          match Hashtbl.find_opt map id with
          | Some nid -> nid
          | None ->
              let nid = !next in
              incr next;
              Hashtbl.replace map id nid;
              nid
        in
        List.map
          (fun sp ->
            if Hashtbl.mem emitted sp.id then begin
              Hashtbl.reset map;
              Hashtbl.reset emitted
            end;
            Hashtbl.replace emitted sp.id ();
            let nid = remap sp.id in
            (match (trace_id sp, attr_num sp "parent_span") with
            | Some tid, None -> Hashtbl.replace targets (tid, sp.id) nid
            | _ -> ());
            let nparent = if sp.parent = 0 then 0 else remap sp.parent in
            { sp with id = nid; parent = nparent })
          spans)
      files
  in
  (* The wire-propagated parent is the causal edge; a process-local
     parent (the server's batch grouping around its request spans) is
     incidental nesting and loses to it.  An absent target (client file
     not given) keeps the local parent: degrade, never orphan. *)
  List.map
    (fun sp ->
      match (trace_id sp, attr_num sp "parent_span") with
      | Some tid, Some ps -> (
          match Hashtbl.find_opt targets (tid, int_of_float ps) with
          | Some p when p <> sp.id -> { sp with parent = p }
          | _ -> sp)
      | _ -> sp)
    merged

(* ------------------------------------------------------------- indexing *)

type index = {
  by_id : (int, span) Hashtbl.t;
  children : (int, span list) Hashtbl.t; (* in ascending start order *)
  roots : span list; (* parent 0 or parent missing from the trace *)
}

let index spans =
  let by_id = Hashtbl.create 256 in
  List.iter (fun sp -> Hashtbl.replace by_id sp.id sp) spans;
  let children = Hashtbl.create 256 in
  let roots = ref [] in
  List.iter
    (fun sp ->
      if sp.parent <> 0 && Hashtbl.mem by_id sp.parent then
        Hashtbl.replace children sp.parent
          (sp :: Option.value ~default:[] (Hashtbl.find_opt children sp.parent))
      else roots := sp :: !roots)
    spans;
  let by_start l =
    List.sort (fun a b -> Float.compare a.start_s b.start_s) l
  in
  Hashtbl.iter
    (fun k l -> Hashtbl.replace children k (by_start l))
    (Hashtbl.copy children);
  { by_id; children; roots = by_start !roots }

let children_of idx sp =
  Option.value ~default:[] (Hashtbl.find_opt idx.children sp.id)

(* Truncated traces can contain a span whose parent id was never
   emitted; such spans are treated as roots by [index], so the child sum
   below only ever sees fully linked children. *)
let child_s idx sp =
  let sum =
    List.fold_left (fun acc c -> acc +. c.dur_s) 0. (children_of idx sp)
  in
  Float.min sum sp.dur_s

let self_s idx sp = sp.dur_s -. child_s idx sp

(* Keep one logical request's causal tree: every span tagged with the
   trace id, plus all descendants (a server's queue-wait/kernel children
   carry no tag of their own — they follow their parent). *)
let filter_trace ~id:tid spans =
  let idx = index spans in
  let keep : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec mark sp =
    if not (Hashtbl.mem keep sp.id) then begin
      Hashtbl.replace keep sp.id ();
      List.iter mark (children_of idx sp)
    end
  in
  List.iter (fun sp -> if trace_id sp = Some tid then mark sp) spans;
  List.filter (fun sp -> Hashtbl.mem keep sp.id) spans

(* ----------------------------------------------------------- aggregate *)

type kind_stats = {
  kind : string;
  count : int;
  errors : int;
  total_s : float;
  kself_s : float;
  kchild_s : float;
  alloc_b : float; (* 0 when the trace carries no profiling attrs *)
  p50_s : float;
  p99_s : float;
  max_s : float;
}

type acc = {
  mutable a_count : int;
  mutable a_errors : int;
  mutable a_total : float;
  mutable a_self : float;
  mutable a_alloc : float;
  mutable a_max : float;
  a_buckets : int array;
}

let quantile a q =
  Obs.quantile_of_buckets
    (List.mapi (fun i c -> (i, c)) (Array.to_list a.a_buckets))
    q

let aggregate spans =
  let idx = index spans in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      let a =
        match Hashtbl.find_opt tbl sp.name with
        | Some a -> a
        | None ->
            let a =
              {
                a_count = 0;
                a_errors = 0;
                a_total = 0.;
                a_self = 0.;
                a_alloc = 0.;
                a_max = 0.;
                a_buckets = Array.make Obs.num_buckets 0;
              }
            in
            Hashtbl.replace tbl sp.name a;
            a
      in
      a.a_count <- a.a_count + 1;
      if not sp.ok then a.a_errors <- a.a_errors + 1;
      a.a_total <- a.a_total +. sp.dur_s;
      a.a_self <- a.a_self +. self_s idx sp;
      a.a_alloc <- a.a_alloc +. Option.value ~default:0. (alloc_bytes sp);
      if sp.dur_s > a.a_max then a.a_max <- sp.dur_s;
      let b = Obs.bucket_of sp.dur_s in
      a.a_buckets.(b) <- a.a_buckets.(b) + 1)
    spans;
  Hashtbl.fold
    (fun kind a out ->
      {
        kind;
        count = a.a_count;
        errors = a.a_errors;
        total_s = a.a_total;
        kself_s = a.a_self;
        kchild_s = a.a_total -. a.a_self;
        alloc_b = a.a_alloc;
        p50_s = quantile a 0.50;
        p99_s = quantile a 0.99;
        max_s = a.a_max;
      }
      :: out)
    tbl []
  |> List.sort (fun a b ->
         match Float.compare b.total_s a.total_s with
         | 0 -> String.compare a.kind b.kind
         | c -> c)

(* Human units: pick the scale once per value. *)
let fmt_s s =
  if s = 0. then "0"
  else if Float.abs s >= 1. then Printf.sprintf "%.3f s" s
  else if Float.abs s >= 1e-3 then Printf.sprintf "%.3f ms" (s *. 1e3)
  else Printf.sprintf "%.1f us" (s *. 1e6)

let fmt_bytes b =
  if b = 0. then "-"
  else if Float.abs b >= 1048576. then
    Printf.sprintf "%.1f MiB" (b /. 1048576.)
  else if Float.abs b >= 1024. then Printf.sprintf "%.1f KiB" (b /. 1024.)
  else Printf.sprintf "%.0f B" b

let report_table ?(title = "trace report") spans =
  let t =
    Table.create ~title
      [ "span"; "count"; "total"; "self"; "child"; "p50"; "p99"; "max";
        "alloc"; "errors" ]
  in
  List.iter
    (fun k ->
      Table.add_row t
        [ Table.S k.kind; Table.I k.count; Table.S (fmt_s k.total_s);
          Table.S (fmt_s k.kself_s); Table.S (fmt_s k.kchild_s);
          Table.S (fmt_s k.p50_s); Table.S (fmt_s k.p99_s);
          Table.S (fmt_s k.max_s); Table.S (fmt_bytes k.alloc_b);
          Table.I k.errors ])
    (aggregate spans);
  t

(* ---------------------------------------------------------- causal tree *)

(* One row per span, children indented under parents in start order —
   the per-request view `bg trace report --id` renders after a merge.
   Starts are relative to the earliest span so a tree reads as a
   timeline, not as wall-clock epochs. *)
let tree_table ?(title = "causal tree") spans =
  let idx = index spans in
  let t0 =
    List.fold_left (fun m sp -> Float.min m sp.start_s) infinity spans
  in
  let t = Table.create ~title [ "span"; "start"; "dur"; "detail" ] in
  let detail sp =
    let field k =
      match List.assoc_opt k sp.attrs with
      | Some (Jsonl.Str s) -> [ Printf.sprintf "%s=%s" k s ]
      | Some (Jsonl.Num n) ->
          [ (if Float.is_integer n then Printf.sprintf "%s=%d" k (int_of_float n)
             else Printf.sprintf "%s=%g" k n) ]
      | _ -> []
    in
    String.concat "  "
      ((if sp.ok then [] else [ "FAILED" ])
      @ field "op" @ field "attempt" @ field "attempts" @ field "error")
  in
  let rec emit depth sp =
    Table.add_row t
      [ Table.S (String.make (2 * depth) ' ' ^ sp.name);
        Table.S (fmt_s (sp.start_s -. t0)); Table.S (fmt_s sp.dur_s);
        Table.S (detail sp) ];
    List.iter (emit (depth + 1)) (children_of idx sp)
  in
  List.iter (emit 0) idx.roots;
  t

(* -------------------------------------------------------- critical path *)

(* The chain of heaviest children under the slowest [experiment] span
   (or, in a trace without experiments, the slowest root): "where did
   the worst run spend its time". *)
let critical_path spans =
  let idx = index spans in
  let slowest = function
    | [] -> None
    | l ->
        Some
          (List.fold_left
             (fun best sp -> if sp.dur_s > best.dur_s then sp else best)
             (List.hd l) l)
  in
  let top =
    match
      slowest (List.filter (fun sp -> sp.name = "experiment") spans)
    with
    | Some sp -> Some sp
    | None -> slowest idx.roots
  in
  let rec descend sp acc =
    match slowest (children_of idx sp) with
    | None -> List.rev (sp :: acc)
    | Some c -> descend c (sp :: acc)
  in
  match top with None -> [] | Some sp -> descend sp []

let critical_path_table spans =
  let path = critical_path spans in
  let idx = index spans in
  let total = match path with [] -> 0. | sp :: _ -> sp.dur_s in
  let t =
    Table.create ~title:"critical path (slowest experiment, heaviest child chain)"
      [ "span"; "total"; "self"; "% of top" ]
  in
  List.iteri
    (fun depth sp ->
      let pct =
        if total > 0. then 100. *. sp.dur_s /. total
        else if depth = 0 then 100.
        else 0.
      in
      Table.add_row t
        [ Table.S (String.make (2 * depth) ' ' ^ sp.name);
          Table.S (fmt_s sp.dur_s); Table.S (fmt_s (self_s idx sp));
          Table.F2 pct ])
    path;
  t

(* -------------------------------------------------------- folded stacks *)

(* flamegraph.pl folded format: "root;child;leaf <value>" with one line
   per distinct stack, value = self time in integer microseconds.
   Stacks are keyed by the name path, so two spans with the same
   ancestry merge — exactly flamegraph semantics. *)
let folded spans =
  let idx = index spans in
  let path_memo = Hashtbl.create 256 in
  (* Fuel bounds the parent climb: a corrupt trace with a parent cycle
     degrades into a truncated stack instead of divergence. *)
  let rec path fuel sp =
    match Hashtbl.find_opt path_memo sp.id with
    | Some p -> p
    | None ->
        let p =
          match Hashtbl.find_opt idx.by_id sp.parent with
          | Some parent when fuel > 0 && sp.parent <> 0 && parent.id <> sp.id
            ->
              path (fuel - 1) parent ^ ";" ^ sp.name
          | _ -> sp.name
        in
        Hashtbl.replace path_memo sp.id p;
        p
  in
  let path sp = path (List.length spans) sp in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      let key = path sp in
      let us = int_of_float (Float.round (self_s idx sp *. 1e6)) in
      Hashtbl.replace tbl key
        (us + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
    spans;
  Hashtbl.fold (fun k v out -> (k, v) :: out) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let folded_to_string spans =
  folded spans
  |> List.map (fun (stack, us) -> Printf.sprintf "%s %d\n" stack us)
  |> String.concat ""

(* ----------------------------------------------------------- speedscope *)

(* Evented speedscope profiles, one per domain (each domain's spans form
   an independent forest).  Open/close events must be properly nested
   with nondecreasing timestamps, which raw gettimeofday readings do not
   strictly guarantee; a cursor clamps every event into its parent's
   window and after its elder siblings, so the output always validates
   even on a jittery trace. *)
let speedscope ?(name = "bg trace") spans =
  let idx = index spans in
  let frame_index = Hashtbl.create 64 in
  let frames = ref [] in
  let frame_of n =
    match Hashtbl.find_opt frame_index n with
    | Some i -> i
    | None ->
        let i = Hashtbl.length frame_index in
        Hashtbl.replace frame_index n i;
        frames := n :: !frames;
        i
  in
  let domains =
    List.sort_uniq compare (List.map (fun sp -> sp.domain) idx.roots)
  in
  let profiles =
    List.map
      (fun dom ->
        let roots = List.filter (fun sp -> sp.domain = dom) idx.roots in
        let t0 =
          List.fold_left (fun m sp -> Float.min m sp.start_s) infinity roots
        in
        let events = ref [] in
        let push ty frame at =
          events :=
            Jsonl.Obj
              [ ("type", Jsonl.Str ty); ("frame", Jsonl.Num (float_of_int frame));
                ("at", Jsonl.Num at) ]
            :: !events
        in
        let rec emit sp ~lo ~hi =
          let open_at = Float.min hi (Float.max lo (sp.start_s -. t0)) in
          let close_at =
            Float.min hi (Float.max open_at (sp.start_s +. sp.dur_s -. t0))
          in
          let f = frame_of sp.name in
          push "O" f open_at;
          let cursor =
            List.fold_left
              (fun cur c -> emit c ~lo:cur ~hi:close_at)
              open_at (children_of idx sp)
          in
          ignore cursor;
          push "C" f close_at;
          close_at
        in
        let end_value =
          List.fold_left (fun cur sp -> emit sp ~lo:cur ~hi:infinity) 0. roots
        in
        Jsonl.Obj
          [ ("type", Jsonl.Str "evented");
            ("name", Jsonl.Str (Printf.sprintf "domain %d" dom));
            ("unit", Jsonl.Str "seconds"); ("startValue", Jsonl.Num 0.);
            ("endValue", Jsonl.Num end_value);
            ("events", Jsonl.Arr (List.rev !events)) ])
      domains
  in
  Jsonl.to_string
    (Jsonl.Obj
       [ ( "$schema",
           Jsonl.Str "https://www.speedscope.app/file-format-schema.json" );
         ("name", Jsonl.Str name); ("exporter", Jsonl.Str "bg trace flame");
         ("activeProfileIndex", Jsonl.Num 0.);
         ( "shared",
           Jsonl.Obj
             [ ( "frames",
                 Jsonl.Arr
                   (List.rev_map
                      (fun n -> Jsonl.Obj [ ("name", Jsonl.Str n) ])
                      !frames) ) ] );
         ("profiles", Jsonl.Arr profiles) ])

(* ----------------------------------------------------------------- diff *)

type diff_row = {
  d_kind : string;
  old_count : int;
  new_count : int;
  old_total_s : float;
  new_total_s : float;
  delta_s : float;
  delta_pct : float; (* infinity when the kind is new, 0 when both absent *)
}

let diff_rows ~old_spans ~new_spans =
  let olds = aggregate old_spans and news = aggregate new_spans in
  let kinds =
    List.sort_uniq String.compare
      (List.map (fun k -> k.kind) olds @ List.map (fun k -> k.kind) news)
  in
  let find l kind = List.find_opt (fun k -> k.kind = kind) l in
  List.map
    (fun kind ->
      let o = find olds kind and n = find news kind in
      let oc = match o with Some k -> k.count | None -> 0 in
      let nc = match n with Some k -> k.count | None -> 0 in
      let ot = match o with Some k -> k.total_s | None -> 0. in
      let nt = match n with Some k -> k.total_s | None -> 0. in
      let delta = nt -. ot in
      {
        d_kind = kind;
        old_count = oc;
        new_count = nc;
        old_total_s = ot;
        new_total_s = nt;
        delta_s = delta;
        delta_pct =
          (if ot > 0. then 100. *. delta /. ot
           else if nt > 0. then infinity
           else 0.);
      })
    kinds
  (* Worst regressions first. *)
  |> List.sort (fun a b ->
         match Float.compare b.delta_s a.delta_s with
         | 0 -> String.compare a.d_kind b.d_kind
         | c -> c)

let diff_table ~old_spans ~new_spans =
  let t =
    Table.create ~title:"trace diff (new - old, worst regressions first)"
      [ "span"; "count old"; "count new"; "total old"; "total new"; "delta";
        "delta %" ]
  in
  List.iter
    (fun r ->
      let pct =
        if Float.is_finite r.delta_pct then
          Printf.sprintf "%+.1f%%" r.delta_pct
        else "new"
      in
      Table.add_row t
        [ Table.S r.d_kind; Table.I r.old_count; Table.I r.new_count;
          Table.S (fmt_s r.old_total_s); Table.S (fmt_s r.new_total_s);
          Table.S (fmt_s r.delta_s); Table.S pct ])
    (diff_rows ~old_spans ~new_spans);
  t
