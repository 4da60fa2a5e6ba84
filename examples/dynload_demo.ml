(* Dynamic loading of classes into an executing program (paper §5).

   "Via a meta-object, a client program specifies the class to be
   loaded, any specializations to apply, and a list of symbols whose
   bound values are to be returned from OMOS ... allowing the new
   classes to refer to procedures and data structures within the
   client."

   The running SVM client below passes a blueprint string to OMOS
   through the dynload syscall, receives the bound address of a routine
   from the freshly loaded class, and calls it indirectly. The loaded
   class calls BACK into the client (client_scale), demonstrating the
   two-way binding.

   Run with: dune exec examples/dynload_demo.exe *)

let klass_src =
  "int shape_area(int w, int h) { return client_scale(w * h); }\n\
   int shape_perimeter(int w, int h) { return client_scale(2 * (w + h)); }\n"

let client_src =
  Printf.sprintf
    "int client_scale(int x) { return x * 10; }\n\
     char bp[] = \"(merge /obj/shape.o)\";\n\
     char sym_area[] = \"shape_area\";\n\
     char sym_perim[] = \"shape_perimeter\";\n\
     int main() {\n\
    \  int f; int g;\n\
    \  putstr(\"loading class /obj/shape.o from OMOS...\\n\");\n\
    \  f = __syscall(%d, &bp, &sym_area);\n\
    \  g = __syscall(%d, &bp, &sym_perim);\n\
    \  if (f == 0 - 1 || g == 0 - 1) { putstr(\"load failed\\n\"); return 1; }\n\
    \  putstr(\"area(3,4) = \"); putint(__icall(f, 3, 4)); putstr(\"\\n\");\n\
    \  putstr(\"perimeter(3,4) = \"); putint(__icall(g, 3, 4)); putstr(\"\\n\");\n\
    \  return 0;\n\
     }\n"
    Simos.Syscall.dynload_syscall Simos.Syscall.dynload_syscall

let () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  Omos.Server.add_fragment s "/obj/shape.o"
    (Minic.Driver.compile ~name:"/obj/shape.o" klass_src);
  let client =
    Minic.Driver.compile ~name:"/obj/dynmain.o" client_src
  in
  (* link client calls to libc for putstr/putint *)
  let libc = Omos.Server.build s @@ Omos.Server.library "/lib/libc" in
  let b =
    Omos.Server.build s @@ Omos.Server.static ~name:"dynmain"
      ~externals:[ libc.Omos.Server.entry.Omos.Cache.image ]
      (Omos.Schemes.graph_of_objs [ Workloads.Crt0.obj (); client ])
  in
  let dl = Omos.Dynload.create s in
  Omos.Dynload.attach dl ~client_images_of:(fun _ ->
      [ b.Omos.Server.entry.Omos.Cache.image;
        libc.Omos.Server.entry.Omos.Cache.image ]);
  let loadable = Omos.Server.loadable_entry [ libc; b ] in
  let p = Omos.Boot.integrated_exec s loadable ~args:[ "dynmain" ] in
  let code = Simos.Kernel.run w.Omos.World.kernel p () in
  print_string (Simos.Proc.stdout_contents p);
  Printf.printf "exit %d\n" code;
  Printf.printf
    "\n(area 3x4 scaled by the CLIENT's x10 = 120: the loaded class bound\n\
     back into the running program, dld-style, through the OMOS server)\n"
