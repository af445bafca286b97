(** Layout definitions: rooted trees of [(view class, optional id)]
    nodes — the abstraction of Section 3.2.1 of the paper.

    A {e path} (child-index list from the root) gives each layout node
    a stable identity; the static analysis mints one inflated-view
    abstraction per (inflation site, layout node), keyed by these
    paths. *)

type node = {
  view_class : string;
  id : string option;
  children : node list;
  include_of : string option;
      (** [Some l]: an [<include layout="@layout/l" />] element, to be
          substituted by {!Expand}. *)
  onclick : string option;
      (** [android:onClick="name"]: the activity method handling clicks
          on this view (declarative listener registration). *)
  fragment_class : string option;
      (** [<fragment android:name="F" />]: a declaratively placed
          fragment; the node inflates to a placeholder container that
          receives [F.onCreateView]'s views. *)
}

type def = { name : string; root : node }

type path = int list
(** [[]] is the root; [[0; 1]] is the second child of the first child. *)

val node : ?id:string -> ?onclick:string -> ?fragment:string -> ?children:node list -> string -> node

val merge_root : string
(** The tag of a [<merge>] root element. *)

val def : name:string -> node -> def

val of_xml : name:string -> Axml.t -> (def, string) result
(** Interpret an XML document as a layout: tags are view classes,
    [android:id="@+id/n"] (or ["@id/n"]) attributes are view ids.
    Other attributes are ignored, as the paper's abstraction keeps
    only classes and ids. *)

val parse : name:string -> string -> (def, string) result
(** Parse XML text directly. *)

val parse_exn : name:string -> string -> def

val to_xml : def -> Axml.t

val pp : def Fmt.t
(** Renders the XML form. *)

val fold : def -> init:'a -> f:('a -> path -> node -> 'a) -> 'a
(** Preorder fold over all nodes with their paths. *)

val nodes : def -> (path * node) list
(** Preorder list of all nodes. *)

val size : def -> int
(** Number of nodes. *)

val find : def -> path -> node option

val ids : def -> string list
(** All view-id names mentioned, preorder, duplicates preserved. *)

val find_by_id : def -> string -> (path * node) list
(** All nodes carrying the given id. *)

val edges : def -> (path * path) list
(** Parent-child pairs — the layout edges of the paper's semantics. *)

val register : Resource.t -> def -> unit
(** Enter the layout's name and every id it mentions into the resource
    table (what compiling the XML to the [R] class does in the SDK). *)
