(* Analysis over a fully private interner.  Every fresh extraction
   sits on the frozen shared tier; these twins are what the tier
   differentials compare it against. *)
open Gator

let analyze ?(config = Config.default) app =
  let graph = Extract.run ~interner:(Intern.create ()) config app in
  let stats = Solve.run config app graph in
  Analysis.make ~app ~config ~graph ~stats ~solve_seconds:0.

let reference ?config app = Analysis.reference ~interner:(Intern.create ()) ?config app
