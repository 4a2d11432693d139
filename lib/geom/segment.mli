(** Line segments, used to model walls in the radio environment: the
    multi-wall propagation model charges an attenuation per wall a link's
    line-of-sight path crosses, so segment intersection is the geometric
    primitive of the simulator.

    The predicates are exact: orientations are decided by Shewchuk's
    orient2d filter with an exact expansion fallback, not by a tolerance.
    So [intersects] is the true intersection test of the closed segments,
    and in particular [intersects (make a b) w = intersects (make b a) w].
    Exactness holds as long as the products of coordinate differences
    (and, on the fallback, of coordinates) neither overflow nor
    underflow. *)

type t = { a : Point.t; b : Point.t }

val make : Point.t -> Point.t -> t
val length : t -> float
val midpoint : t -> Point.t

val orient : Point.t -> Point.t -> Point.t -> int
(** [orient p q r] is the exact sign ([1], [0] or [-1]) of
    [cross (q - p) (r - p)]: [1] when [r] lies left of the directed line
    from [p] to [q], [0] when the three points are collinear.  Hence
    [orient q p r = - orient p q r] and [orient p q r = orient q r p]. *)

val intersects : t -> t -> bool
(** Proper or touching intersection of two closed segments, exactly.
    Symmetric in the two segments and in the direction of each. *)

val pack : (t * float) list -> float array
(** Weighted segments as one flat array, five floats per segment in list
    order: the endpoints' coordinates, then the weight. *)

val crossed_weight : float array -> Point.t -> Point.t -> float
(** [crossed_weight (pack ws) a b] sums, in list order from [0.], the
    weights of the segments of [ws] that the path from [a] to [b]
    {!intersects}.  Segments outside the path's bounding box are skipped
    without a test, which changes no answer.  [crossed_weight p a b =
    crossed_weight p b a], bit for bit. *)

val intersection : t -> t -> Point.t option
(** The point where two segments meet: [Some] exactly when they
    {!intersects} and are not collinear (all four endpoints on one line,
    which includes a segment of length zero meeting the other).  The
    point is [s1.a + t (s1.b - s1.a)] for the float parameter [t],
    clamped into [\[0, 1\]]. *)

val dist_point : t -> Point.t -> float
(** Euclidean distance from a point to the (closed) segment. *)

val crossings : t -> t list -> int
(** [crossings path walls] counts how many of [walls] the segment [path]
    intersects — the wall count in the multi-wall model. *)
