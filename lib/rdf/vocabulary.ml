let rdfs_ns = "http://www.w3.org/2000/01/rdf-schema#"

let rdf_type = Term.rdf_type
let rdfs_subclassof = Term.Uri (rdfs_ns ^ "subClassOf")
let rdfs_subpropertyof = Term.Uri (rdfs_ns ^ "subPropertyOf")
let rdfs_domain = Term.Uri (rdfs_ns ^ "domain")
let rdfs_range = Term.Uri (rdfs_ns ^ "range")
