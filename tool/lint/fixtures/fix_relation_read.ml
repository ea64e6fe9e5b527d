(* Clean counterpart to fix_relation_write.ml: reads of a relation and
   of its row set, and writes to a set of one's own, which is then
   wrapped.  Must lint clean. *)

let member rel row = Engine.Relation.mem rel row

let index rel row = Rdf.Rowset.find (Engine.Relation.rowset rel) row

let result_size result = Rdf.Rowset.cardinal (Engine.Relation.rowset result)

let fresh cols rows =
  let set = Rdf.Rowset.create 16 in
  List.iter (fun row -> ignore (Rdf.Rowset.add set row : bool)) rows;
  Engine.Relation.of_rowset ~name:"fresh" ~cols set
