(** ASCII table rendering for experiment output.

    Every experiment run by [bg experiment] prints its rows through this
    module so that the "paper-style" tables recorded in EXPERIMENTS.md
    have a uniform, diff-friendly shape.  Also provides CSV output for downstream
    plotting. *)

type cell = S of string | I of int | F of float | F2 of float | F4 of float
(** A table cell: string, integer, or float rendered with [%g], two or four
    decimal places respectively. *)

type t

val create : title:string -> string list -> t
(** [create ~title headers] starts a table with the given column headers. *)

val add_row : t -> cell list -> unit
(** Append a row; must match the header arity. *)

val render : t -> string
(** Render with aligned columns, a title line and a separator. *)

val print : t -> unit
(** [render] to stdout followed by a blank line. *)

val to_csv : t -> string
(** Comma-separated rendering (header row first, commas in cells escaped by
    double quotes). *)

val cell_to_string : cell -> string
(** Rendering of a single cell, as used by {!render}. *)
