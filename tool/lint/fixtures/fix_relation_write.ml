(* Seeded-violation fixture for the relation-write lint rule: every
   site below writes a relation, or its row set, outside view
   maintenance.  An executor result may share a view's row set, so each
   of these could change a view behind its maintenance.  Never compiled
   — the linter only parses it; check_fixtures.sh asserts each site is
   flagged. *)

let grow rel row = Engine.Relation.add_row rel row

let shrink rel row = ignore (Engine.Relation.remove_row rel row : bool)

let grow_all rel rows = List.filter (Relation.add_row rel) rows

let through_set rel row = Rdf.Rowset.add (Engine.Relation.rowset rel) row

let through_alias rel row =
  let rows = Engine.Relation.rowset rel in
  Rdf.Rowset.remove rows row

let bulk rel rows n = Rdf.Rowset.add_rows (Relation.rowset rel) ~width:2 rows n
