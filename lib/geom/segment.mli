(** Line segments, used to model walls in the radio environment: the
    multi-wall propagation model charges an attenuation per wall a link's
    line-of-sight path crosses, so segment intersection is the geometric
    primitive of the simulator. *)

type t = { a : Point.t; b : Point.t }

val make : Point.t -> Point.t -> t
val length : t -> float
val midpoint : t -> Point.t

val intersects : t -> t -> bool
(** Proper or touching intersection of two closed segments. *)

val pack : (t * float) list -> float array
(** Weighted segments as one flat array, five floats per segment in list
    order: the endpoints' coordinates, then the weight. *)

val crossed_weight : float array -> Point.t -> Point.t -> float
(** [crossed_weight (pack ws) a b] sums, in list order from [0.], the
    weights of the segments of [ws] that the path from [a] to [b]
    {!intersects}. *)

val intersection : t -> t -> Point.t option
(** Intersection point of two non-parallel segments, if they intersect;
    [None] for parallel/collinear or disjoint segments. *)

val dist_point : t -> Point.t -> float
(** Euclidean distance from a point to the (closed) segment. *)

val crossings : t -> t list -> int
(** [crossings path walls] counts how many of [walls] the segment [path]
    intersects — the wall count in the multi-wall model. *)
