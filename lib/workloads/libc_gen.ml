(** The synthetic C library.

    Mirrors the paper's Figure 1 libc: eight sections (gen, stdio,
    string, stdlib, hppa, net, quad, rpc) that OMOS merges into one
    library meta-object. The sections carry:

    - real, executable implementations of the routines the workloads
      need (string ops, stdio, allocator, syscall wrappers), and
    - deterministic generated "bulk" functions that give the library a
      realistic size, internal call chains, and data-table references —
      the unused code whose page-scattering the paper's working-set and
      reordering discussions are about.

    Each section is a separate translation unit; cross-section calls
    resolve at merge time exactly like the real libc members. *)

let b = Buffer.create 4096

let line fmt = Format.kasprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt

let take () =
  let s = Buffer.contents b in
  Buffer.clear b;
  s

(* Deterministic pseudo-random stream (no Random: keep builds stable). *)
let mix seed i = ((seed * 1103515245) + (i * 12345) + 0x2545F49) land 0x3FFFFFF

(* A generated bulk function. Calls its predecessor in the section
   (internal relocation + realistic call chain) and reads the section's
   data table (data relocation). *)
let gen_pad ~section ~index =
  let k1 = (mix 7 index mod 97) + 3 in
  let k2 = mix 11 index mod 8191 in
  let k3 = mix 13 index mod 255 in
  line "int libc_%s_%d(int x) {" section index;
  line "  int a; int b;";
  line "  a = x * %d + %d;" k1 k2;
  line "  b = (a >> 3) ^ %d;" k3;
  line "  a = a + %s_table[x & 63];" section;
  if index > 0 && index mod 3 <> 0 then
    line "  if ((b & 7) == 7) { a = a + libc_%s_%d(b %% 13); }" section (index - 1);
  line "  while (a > 1000000) { a = a - (b | 257) - 1000; }";
  line "  while (a < -1000000) { a = a + (b | 257) + 1000; }";
  line "  return a + b;";
  line "}"

let gen_section_preamble ~section ~pads =
  line "int %s_table[64];" section;
  for i = 0 to pads - 1 do
    gen_pad ~section ~index:i
  done

(* -- the eight sections ---------------------------------------------- *)

let src_string () =
  gen_section_preamble ~section:"string" ~pads:24;
  line "int strlen(int s) {";
  line "  int n; n = 0;";
  line "  while (__load8(s + n) != 0) { n = n + 1; }";
  line "  return n;";
  line "}";
  line "int strcpy(int d, int s) {";
  line "  int i; i = 0;";
  line "  while (__load8(s + i) != 0) { __store8(d + i, __load8(s + i)); i = i + 1; }";
  line "  __store8(d + i, 0);";
  line "  return d;";
  line "}";
  line "int strcat(int d, int s) { strcpy(d + strlen(d), s); return d; }";
  line "int strcmp(int a, int b) {";
  line "  int i; int ca; int cb; i = 0;";
  line "  while (1) {";
  line "    ca = __load8(a + i); cb = __load8(b + i);";
  line "    if (ca != cb) return ca - cb;";
  line "    if (ca == 0) return 0;";
  line "    i = i + 1;";
  line "  }";
  line "  return 0;";
  line "}";
  line "int memset(int p, int c, int n) {";
  line "  int i; i = 0;";
  line "  while (i < n) { __store8(p + i, c); i = i + 1; }";
  line "  return p;";
  line "}";
  line "int memcpy(int d, int s, int n) {";
  line "  int i; i = 0;";
  line "  while (i < n) { __store8(d + i, __load8(s + i)); i = i + 1; }";
  line "  return d;";
  line "}";
  take ()

let src_stdio () =
  gen_section_preamble ~section:"stdio" ~pads:24;
  line "int write(int fd, int buf, int len) { return __syscall(%d, fd, buf, len); }"
    Simos.Syscall.sys_write;
  line "int putstr(int s) { return write(1, s, strlen(s)); }";
  line "int puts(int s) { putstr(s); return write(1, \"\\n\", 1); }";
  line "int __pc_buf;";
  line "int putchar(int c) { __store8(&__pc_buf, c); write(1, &__pc_buf, 1); return c; }";
  line "int __itoa_tmp[16];";
  line "int itoa(int n, int buf) {";
  line "  int i; int j; int neg;";
  line "  i = 0; j = 0; neg = 0;";
  line "  if (n < 0) { neg = 1; n = 0 - n; }";
  line "  if (n == 0) { __store8(buf + 0, 48); __store8(buf + 1, 0); return 1; }";
  line "  while (n > 0) { __itoa_tmp[i] = 48 + (n %% 10); n = n / 10; i = i + 1; }";
  line "  if (neg) { __store8(buf + j, 45); j = j + 1; }";
  line "  while (i > 0) { i = i - 1; __store8(buf + j, __itoa_tmp[i]); j = j + 1; }";
  line "  __store8(buf + j, 0);";
  line "  return j;";
  line "}";
  line "int __numbuf[8];";
  line "int putint(int n) { int l; l = itoa(n, &__numbuf); return write(1, &__numbuf, l); }";
  take ()

let src_stdlib () =
  gen_section_preamble ~section:"stdlib" ~pads:24;
  line "int __heap_next;";
  line "int malloc(int n) {";
  line "  int p;";
  line "  if (__heap_next == 0) { __heap_next = 0x60000000; }";
  line "  p = __heap_next;";
  line "  __heap_next = __heap_next + ((n + 3) / 4) * 4;";
  line "  return p;";
  line "}";
  line "int free(int p) { return 0; }";
  line "int abs(int x) { if (x < 0) return 0 - x; return x; }";
  line "int imin(int a, int b) { if (a < b) return a; return b; }";
  line "int imax(int a, int b) { if (a < b) return b; return a; }";
  line "int atoi(int s) {";
  line "  int n; int i; int c;";
  line "  n = 0; i = 0; c = __load8(s);";
  line "  while (c >= 48 && c <= 57) { n = n * 10 + (c - 48); i = i + 1; c = __load8(s + i); }";
  line "  return n;";
  line "}";
  take ()

let src_gen () =
  gen_section_preamble ~section:"gen" ~pads:20;
  line "int open(int path) { return __syscall(%d, path); }" Simos.Syscall.sys_open;
  line "int read(int fd, int buf, int len) { return __syscall(%d, fd, buf, len); }"
    Simos.Syscall.sys_read;
  line "int close(int fd) { return __syscall(%d, fd); }" Simos.Syscall.sys_close;
  line "int stat(int path, int out) { return __syscall(%d, path, out); }" Simos.Syscall.sys_stat;
  line "int readdir(int fd, int idx, int buf) { return __syscall(%d, fd, idx, buf); }"
    Simos.Syscall.sys_readdir;
  line "int getpid() { return __syscall(%d); }" Simos.Syscall.sys_getpid;
  line "int argc() { return __syscall(%d); }" Simos.Syscall.sys_argc;
  line "int getarg(int i, int buf, int maxlen) { return __syscall(%d, i, buf, maxlen); }"
    Simos.Syscall.sys_argv;
  line "int exit(int code) { return __syscall(%d, code); }" Simos.Syscall.sys_exit;
  take ()

(* Sections hppa/net/quad/rpc carry the "long listing" machinery real
   ls -l pulls in, placed after each section's bulk so the routines are
   scattered across distinct pages — exactly the working-set shape the
   deferred-relocation and reordering experiments depend on. *)

let src_quad () =
  gen_section_preamble ~section:"quad" ~pads:28;
  (* insertion sort of string pointers, via strcmp — the qsort stand-in
     ls -l uses to order its entries *)
  line "int sort_strings(int arr, int n) {";
  line "  int i; int j; int key;";
  line "  i = 1;";
  line "  while (i < n) {";
  line "    key = arr[i];";
  line "    j = i - 1;";
  line "    while (j >= 0 && strcmp(arr[j], key) > 0) {";
  line "      arr[j + 1] = arr[j];";
  line "      j = j - 1;";
  line "    }";
  line "    arr[j + 1] = key;";
  line "    i = i + 1;";
  line "  }";
  line "  return n;";
  line "}";
  take ()

let src_net () =
  gen_section_preamble ~section:"net" ~pads:48;
  line "char __u0[] = \"root\";";
  line "char __u1[] = \"daemon\";";
  line "char __u2[] = \"bin\";";
  line "char __u3[] = \"sys\";";
  line "char __u4[] = \"adm\";";
  line "char __u5[] = \"uucp\";";
  line "char __u6[] = \"lp\";";
  line "char __u7[] = \"nobody\";";
  line "int getuser(int uid) {";
  line "  int u; u = uid & 7;";
  line "  if (u == 0) return &__u0;";
  line "  if (u == 1) return &__u1;";
  line "  if (u == 2) return &__u2;";
  line "  if (u == 3) return &__u3;";
  line "  if (u == 4) return &__u4;";
  line "  if (u == 5) return &__u5;";
  line "  if (u == 6) return &__u6;";
  line "  return &__u7;";
  line "}";
  take ()

let src_rpc () =
  gen_section_preamble ~section:"rpc" ~pads:40;
  (* mode-string formatting: "drwxr-xr-x" style, 10 chars + NUL *)
  line "int fmt_mode(int kind, int perm, int buf) {";
  line "  int i; int bit;";
  line "  if (kind == 1) { __store8(buf, 100); } else { __store8(buf, 45); }";
  line "  i = 0;";
  line "  while (i < 9) {";
  line "    bit = (perm >> (8 - i)) & 1;";
  line "    if (bit) {";
  line "      if (i %% 3 == 0) __store8(buf + 1 + i, 114);";
  line "      if (i %% 3 == 1) __store8(buf + 1 + i, 119);";
  line "      if (i %% 3 == 2) __store8(buf + 1 + i, 120);";
  line "    } else {";
  line "      __store8(buf + 1 + i, 45);";
  line "    }";
  line "    i = i + 1;";
  line "  }";
  line "  __store8(buf + 10, 0);";
  line "  return buf;";
  line "}";
  take ()

let src_hppa () =
  gen_section_preamble ~section:"hppa" ~pads:64;
  (* right-aligned integer printing used by the -l column layout *)
  line "int pad_int(int n, int width) {";
  line "  int len; int i;";
  line "  len = itoa(n, &__padbuf);";
  line "  i = len;";
  line "  while (i < width) { putchar(32); i = i + 1; }";
  line "  return write(1, &__padbuf, len);";
  line "}";
  line "int __padbuf[8];";
  take ()

let section_names = [ "gen"; "stdio"; "string"; "stdlib"; "hppa"; "net"; "quad"; "rpc" ]

(** Source text of one libc section. *)
let section_source (section : string) : string =
  match section with
  | "gen" -> src_gen ()
  | "stdio" -> src_stdio ()
  | "string" -> src_string ()
  | "stdlib" -> src_stdlib ()
  | "hppa" -> src_hppa ()
  | "net" -> src_net ()
  | "quad" -> src_quad ()
  | "rpc" -> src_rpc ()
  | other -> invalid_arg ("unknown libc section " ^ other)

(** Compile every section: [(path, object)] pairs, paths as in
    Figure 1 ([/libc/gen] …). *)
let objects () : (string * Sof.Object_file.t) list =
  List.map
    (fun sec ->
      let path = "/libc/" ^ sec in
      (path, Minic.Driver.compile ~name:path (section_source sec)))
    section_names

(** Per-function objects of a section — the granularity the reordering
    transformation shuffles. *)
let split_objects (section : string) : Sof.Object_file.t list =
  Minic.Driver.compile_split ~name:("/libc/" ^ section) (section_source section)
