(** Classification of Android API calls into the semantic operation
    categories of Section 3 of the paper.

    A call in application code is an {e operation} only when it does
    not resolve to an application method (application definitions
    shadow the platform: Figure 1's [ConsoleActivity.findViewById] is
    an ordinary call).  That resolution happens in the analysis; this
    module only answers "if this call reaches the platform, what
    operation is it?". *)

type scope =
  | Descendants  (** e.g. [findFocus()] — any transitive child *)
  | Children  (** e.g. [getCurrentView()], [getChildAt(i)] — direct children only (the refinement the paper's implementation employs) *)

type kind =
  | Inflate  (** [LayoutInflater.inflate(id, ...)]: rule INFLATE1 — returns the fresh root *)
  | Set_content
      (** [Activity/Dialog.setContentView(x)]: with a layout id this is
          rule INFLATE2; with a view it is rule ADDVIEW1.  The solver
          discriminates by what flows to the argument. *)
  | Add_view  (** [ViewGroup.addView(child, ...)]: rule ADDVIEW2 *)
  | Set_id  (** [View.setId(id)]: rule SETID *)
  | Set_listener of Listeners.iface  (** rule SETLISTENER *)
  | Find_view
      (** [findViewById(id)] on a view (FINDVIEW1) or an activity/dialog
          (FINDVIEW2); discriminated by what flows to the receiver. *)
  | Find_one of scope  (** rule FINDVIEW3 *)
  | Get_parent  (** [View.getParent()] — extension beyond the paper *)
  | Start_activity
      (** [Context.startActivity(target)] — extension supporting the
          inter-component control-flow analyses of Section 6.  ALite
          abstracts intents as target-activity tokens: the argument's
          abstract objects of activity classes name the launched
          activities. *)
  | Pass_through
      (** [getFragmentManager()]/[beginTransaction()]: helper accessors
          whose result stands for their receiver.  The solver copies
          the receiver's values to the output, so the activity identity
          travels through the fragment-transaction chain. *)
  | Fragment_add
      (** [FragmentTransaction.add(containerId, fragment)] /
          [replace(...)] — fragment extension: triggers the fragment's
          [onCreateView] callback and attaches its returned views under
          the views carrying the container id in the (receiver)
          activity's hierarchy. *)
  | Menu_add
      (** [Menu.add(title)] / [Menu.add(group, itemId, order, title)] —
          options-menu extension: mints a fresh MenuItem abstraction per
          site, attaches it under the receiver menu, and feeds the
          owning activity's [onOptionsItemSelected] callback. *)
  | Set_adapter
      (** [AdapterView.setAdapter(a)] — adapter extension: the
          adapter's [getView] callback runs with the list view as its
          parent parameter, and the views it returns become children of
          the list view (the item views item-click listeners then
          receive). *)

val compare_kind : kind -> kind -> int
(** Explicit ordering (listener interfaces compare by name), so
    op-site keyed maps need no polymorphic compare. *)

val kinds : kind list
(** Every kind, with one [Set_listener] per interface of
    {!Listeners.all}. *)

val kind_index : kind -> int
(** The kind's position in {!kinds}. *)

val pp_kind : kind Fmt.t

val kind_label : kind -> string
(** Short label: ["Inflate"], ["FindView"], ["AddView"], ["SetId"],
    ["SetListener"], ["SetContent"], ["FindOne"], ["GetParent"]. *)

val classify : name:string -> arity:int -> kind option
(** Classify by method name and arity alone; receiver/argument kinds
    are resolved during constraint solving. *)

val return_ty : recv_ty:string option -> string -> int -> Jir.Ast.ty option
(** Declared return types of modeled platform APIs, for {!Jir.Typing}.
    Includes non-operation helpers such as
    [Activity.getLayoutInflater()]. *)

val platform_decls : Jir.Hierarchy.decl list
(** Everything the platform model declares: view classes
    ({!Views.decls}) plus listener interfaces ({!Listeners.decls}). *)

val hierarchy : Jir.Ast.program -> Jir.Hierarchy.t
(** Hierarchy of a program against the full platform model. *)
