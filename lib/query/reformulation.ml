let is_type t = Qterm.equal t (Qterm.cst Rdf.Vocabulary.rdf_type)

(* One backward application of each rule of Fig. 2 on each atom of [q]. *)
let step schema (q : Cq.t) =
  let replace_atom i g' =
    Cq.make ~name:q.name ~head:q.head
      ~body:(List.mapi (fun j a -> if j = i then g' else a) q.body)
  in
  let on_atom i (g : Atom.t) =
    let rule1 =
      match (g.p, g.o) with
      | p, Qterm.Cst c2 when is_type p ->
        List.map
          (fun c1 -> replace_atom i (Atom.make g.s g.p (Qterm.cst c1)))
          (Rdf.Schema.direct_subclasses schema c2)
      | _, (Qterm.Cst _ | Qterm.Var _) -> []
    in
    let rule2 =
      match g.p with
      | Qterm.Cst p2 ->
        List.map
          (fun p1 -> replace_atom i (Atom.make g.s (Qterm.cst p1) g.o))
          (Rdf.Schema.direct_subproperties schema p2)
      | Qterm.Var _ -> []
    in
    let rule3 =
      match (g.p, g.o) with
      | p, Qterm.Cst c when is_type p ->
        List.map
          (fun prop ->
            replace_atom i
              (Atom.make g.s (Qterm.cst prop) (Qterm.var (Qterm.fresh_var ()))))
          (Rdf.Schema.properties_with_domain schema c)
      | _, (Qterm.Cst _ | Qterm.Var _) -> []
    in
    let rule4 =
      match (g.p, g.o) with
      | p, Qterm.Cst c when is_type p ->
        List.map
          (fun prop ->
            replace_atom i
              (Atom.make (Qterm.var (Qterm.fresh_var ())) (Qterm.cst prop) g.s))
          (Rdf.Schema.properties_with_range schema c)
      | _, (Qterm.Cst _ | Qterm.Var _) -> []
    in
    let rule5 =
      match (g.p, g.o) with
      | p, Qterm.Var x when is_type p ->
        List.map
          (fun ci -> Cq.subst_var x (Qterm.cst ci) q)
          (Rdf.Schema.classes schema)
      | _, (Qterm.Cst _ | Qterm.Var _) -> []
    in
    let rule6 =
      match g.p with
      | Qterm.Var x ->
        List.map
          (fun pi -> Cq.subst_var x (Qterm.cst pi) q)
          (Rdf.Schema.properties schema @ [ Rdf.Vocabulary.rdf_type ])
      | Qterm.Cst _ -> []
    in
    List.concat [ rule1; rule2; rule3; rule4; rule5; rule6 ]
  in
  List.concat (List.mapi on_atom q.body)

let reformulate q schema =
  let seen = Hashtbl.create 64 in
  let output = ref [] in
  let queue = Queue.create () in
  let push q' =
    let key = Cq.canonical_string q' in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      output := q' :: !output;
      Queue.add q' queue
    end
  in
  push q;
  while not (Queue.is_empty queue) do
    let q' = Queue.pop queue in
    List.iter push (step schema q')
  done;
  let disjuncts = List.rev !output in
  let named =
    List.mapi
      (fun i d -> Cq.rename d (Printf.sprintf "%s#%d" q.Cq.name i))
      disjuncts
  in
  Ucq.make ~name:q.Cq.name named
