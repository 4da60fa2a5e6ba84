(** Dynamic loading of classes into executing programs (paper §5), and
    the unlinking extension (§9). *)

exception Dynload_error of string

type t

(** A loader for the server's kernel. A process the kernel reaps with
    classes still loaded gives back their arena reservations, and this
    loader forgets it. *)
val create : Server.t -> t

(** [load t p ~client_images ~graph ~symbols] instantiates [graph],
    binds it against the process's images (client first, then
    previously loaded classes — so new classes can call back into the
    client), maps it into [p] at constraint-chosen addresses, and
    returns the bound values of [symbols].
    @raise Dynload_error if a requested symbol is not bound. *)
val load :
  t ->
  Simos.Proc.t ->
  client_images:Linker.Image.t list ->
  graph:Blueprint.Mgraph.node ->
  symbols:string list ->
  (string * int) list

(** [unload t p img] dynamically unlinks a previously loaded class: its
    regions are unmapped and its arena reservations released.
    @raise Dynload_error if [img] was not loaded into [p]. *)
val unload : t -> Simos.Proc.t -> Linker.Image.t -> unit

(** Images currently loaded into [p] through this loader. *)
val loaded : t -> Simos.Proc.t -> Linker.Image.t list

(** Register the in-simulation syscall ({!Simos.Syscall.dynload_syscall}:
    r1 = blueprint string address, r2 = symbol name address; the bound
    address in r0, or -1) in the server kernel's table.
    [client_images_of] supplies the images a process was launched with,
    so loaded classes can bind to client symbols. *)
val attach : t -> client_images_of:(Simos.Proc.t -> Linker.Image.t list) -> unit
