(** Abstract syntax of minic.

    Everything is a 32-bit int; arrays are word arrays; strings are
    addresses of NUL-terminated byte runs in the data section. That is
    all the paper's workloads need, and it keeps the calling convention
    and relocation story small. *)

type binop =
    Add
  | Sub
  | Mul
  | Div
  | Mod
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | Land
  | Lor
type unop = Neg | Not
type expr =
    Num of int32
  | Str of string
  | Var of string
  | Index of string * expr
  | Addr of string
  | Call of string * expr list
  | Syscall of int * expr list
  | Icall of expr * expr list
  | Load8 of expr
  | Bin of binop * expr * expr
  | Un of unop * expr
type stmt =
    Decl of string * expr option
  | Assign of string * expr
  | Store of string * expr * expr
  | Store8 of expr * expr
  | If of expr * stmt * stmt option
  | While of expr * stmt
  | For of stmt option * expr option * stmt option * stmt
  | Return of expr option
  | Break
  | Continue
  | Block of stmt list
  | Expr of expr
type func = {
  fname : string;
  params : string list;
  body : stmt list;
  static : bool;
  is_ctor : bool;
}
type global =
    Gvar of { name : string; init : int32; static : bool; }
  | Garray of { name : string; size : int; static : bool; }
  | Gstring of { name : string; value : string; static : bool; }
  | Gextern_var of string
  | Gextern_fun of string * int
  | Gfunc of func
type program = global list
