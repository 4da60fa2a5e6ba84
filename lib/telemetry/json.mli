(** A deliberately small JSON reader/writer: enough to emit the export
    formats and the flight-recorder dumps with correct escaping, and to
    parse them back for validation (tests, [ofe trace]), without an
    external dependency. Clients address it as [Telemetry.Json]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(** The body of a JSON string literal: quotes, backslashes and control
    characters escaped. *)
val escape : string -> string

(** A JSON number: integers below 1e15 print without a fraction, every
    other value as [%.6g]. *)
val number : float -> string

val to_string : t -> string

(** @raise Parse_error on malformed input. *)
val parse : string -> t

val member : string -> t -> t option
