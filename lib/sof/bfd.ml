(** The object-format switch (the paper's BFD role, §7).

    "A promising route for future portability is the GNU project's BFD
    library ... It contains an array of object-format specific
    backends." OMOS encapsulated its format knowledge behind one
    interface; this module is that interface for the reproduction's two
    backends — the native {!Codec} stream format and the a.out-style
    {!Aout} layout — dispatching on the file's magic. *)

exception Unknown_format of string

type format = Native | Aout_style

let all_formats = [ ("sof", Native); ("aout", Aout_style) ]

let format_of_string (s : string) : format =
  match List.assoc_opt (String.lowercase_ascii s) all_formats with
  | Some f -> f
  | None -> raise (Unknown_format s)

(** Identify the format of [b] by magic, if any backend claims it. *)
let detect (b : Bytes.t) : format option =
  if Bytes.length b < 4 then None
  else
    match Bytes.sub_string b 0 4 with
    | m when m = Codec.magic -> Some Native
    | m when m = Aout.magic -> Some Aout_style
    | _ -> None

let encode (fmt : format) (o : Object_file.t) : Bytes.t =
  match fmt with Native -> Codec.encode o | Aout_style -> Aout.encode o

(** Decode in whichever format the bytes are in. *)
let decode (b : Bytes.t) : Object_file.t =
  match detect b with
  | Some Native -> Codec.decode b
  | Some Aout_style -> Aout.decode b
  | None -> raise (Unknown_format "unrecognized object file magic")

(** Re-encode an object file in another backend's format. *)
let convert ~(to_ : format) (b : Bytes.t) : Bytes.t = encode to_ (decode b)
