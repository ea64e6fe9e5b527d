(** The RDF and RDFS vocabulary URIs given special meaning by the W3C
    recommendation, as used throughout the paper (Table 1, Fig. 2). *)

val rdf_type : Term.t
(** [rdf:type] — class membership of a resource. *)

val rdfs_subclassof : Term.t
(** [rdfs:subClassOf] — class inclusion. *)

val rdfs_subpropertyof : Term.t
(** [rdfs:subPropertyOf] — property inclusion. *)

val rdfs_domain : Term.t
(** [rdfs:domain] — domain typing of a property. *)

val rdfs_range : Term.t
(** [rdfs:range] — range typing of a property. *)
