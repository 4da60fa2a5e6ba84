(** Abstract syntax of minic.

    Everything is a 32-bit int; arrays are word arrays; strings are
    addresses of NUL-terminated byte runs in the data section. That is
    all the paper's workloads need, and it keeps the calling convention
    and relocation story small. *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | And | Or | Xor | Shl | Shr
  | Lt | Le | Gt | Ge | Eq | Ne
  | Land | Lor (* short-circuit *)

type unop = Neg | Not

type expr =
  | Num of int32
  | Str of string (* address of the literal *)
  | Var of string
  | Index of string * expr (* v[e] : word indexing *)
  | Addr of string (* &v : address of a global *)
  | Call of string * expr list
  | Syscall of int * expr list (* __syscall(N, ...) with literal N *)
  | Icall of expr * expr list (* __icall(addr, ...): indirect call *)
  | Load8 of expr (* __load8(addr) *)
  | Bin of binop * expr * expr
  | Un of unop * expr

type stmt =
  | Decl of string * expr option (* int x; / int x = e; *)
  | Assign of string * expr
  | Store of string * expr * expr (* v[i] = e *)
  | Store8 of expr * expr (* __store8(addr, v) *)
  | If of expr * stmt * stmt option
  | While of expr * stmt
  | For of stmt option * expr option * stmt option * stmt
      (* for (init; cond; step) body; missing cond = loop forever *)
  | Return of expr option
  | Break
  | Continue
  | Block of stmt list
  | Expr of expr

type func = {
  fname : string;
  params : string list;
  body : stmt list;
  static : bool; (* Local binding *)
  is_ctor : bool; (* registered as static initializer *)
}

type global =
  | Gvar of { name : string; init : int32; static : bool } (* int g = k; *)
  | Garray of { name : string; size : int; static : bool } (* int g[n]; (bss) *)
  | Gstring of { name : string; value : string; static : bool } (* char s[] = "..."; *)
  | Gextern_var of string
  | Gextern_fun of string * int (* name, arity *)
  | Gfunc of func

type program = global list
