(** Symbol selection by regular expression.

    "Module operations typically take a regular expression as a
    specification of the symbols to select" (§3.3). Patterns follow
    [Str] syntax; as in the paper's examples ([^_malloc$]) the caller
    anchors explicitly — an unanchored pattern matches anywhere in the
    name. *)

type t = { pattern : string; re : Str.regexp }

let compile (pattern : string) : t = { pattern; re = Str.regexp pattern }

(** Non-raising form for static analysis: [Str.regexp] failures come
    back as [Error msg] instead of escaping as [Failure]. *)
let compile_res (pattern : string) : (t, string) result =
  match compile pattern with
  | s -> Ok s
  | exception Failure msg -> Error msg

let pattern (s : t) = s.pattern

(** [any names] selects exactly [names]: an anchored alternation of the
    quoted names, with the whole name as group 1, so a rewrite template
    can refer to it as [\1]. *)
let any (names : string list) : t =
  compile ("^\\(" ^ String.concat "\\|" (List.map Str.quote names) ^ "\\)$")

(** Does the symbol name match (anywhere, unless the pattern anchors)? *)
let matches (s : t) (name : string) : bool =
  try
    ignore (Str.search_forward s.re name 0);
    true
  with Not_found -> false

(** The subset of names that match, in input order. *)
let selected (s : t) (names : string list) : string list =
  List.filter (matches s) names

(** [rewrite s template name] — if [name] matches, substitute the whole
    match with [template] (which may use [\1]… group references) and
    return the rewritten name. *)
let rewrite (s : t) (template : string) (name : string) : string option =
  if matches s name then Some (Str.replace_first s.re template name) else None
