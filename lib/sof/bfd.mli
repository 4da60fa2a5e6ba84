(** The object-format switch (the paper's BFD role, §7): one interface
    over the native {!Codec} stream format and the a.out-style {!Aout}
    layout, dispatching on the file's magic. *)

exception Unknown_format of string

type format = Native | Aout_style

(** (name, format) pairs: ["sof"] and ["aout"]. *)
val all_formats : (string * format) list

(** @raise Unknown_format. *)
val format_of_string : string -> format

(** Identify the format of the bytes, if any backend claims them. *)
val detect : Bytes.t -> format option

val encode : format -> Object_file.t -> Bytes.t

(** Decode in whichever format the bytes are in.
    @raise Unknown_format if no backend recognizes the magic. *)
val decode : Bytes.t -> Object_file.t

(** Re-encode an object file in another backend's format. *)
val convert : to_:format -> Bytes.t -> Bytes.t
