(** Symbol selection by regular expression (paper §3.3: "Module
    operations typically take a regular expression as a specification
    of the symbols to select"). Patterns follow [Str] syntax; anchor
    explicitly, as in the paper's [^_malloc$]. *)

type t

val compile : string -> t

(** Non-raising {!compile} for static analysis: [Str.regexp] failures
    come back as [Error msg] instead of escaping as [Failure]. *)
val compile_res : string -> (t, string) result

val pattern : t -> string

(** [any names] selects exactly [names] (quoted, so metacharacters in
    them match literally), with the whole name as group 1 — one
    selector for a set, where a rewrite template refers to the name as
    [\1]. *)
val any : string list -> t

(** Does the symbol name match (anywhere, unless the pattern anchors)? *)
val matches : t -> string -> bool

(** The subset of names that match, in input order. *)
val selected : t -> string list -> string list

(** If the name matches, substitute the whole match with [template]
    ([\1]… group references allowed) and return the rewritten name. *)
val rewrite : t -> string -> string -> string option
