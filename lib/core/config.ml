type t = {
  cast_filtering : bool;
  findone_refinement : bool;
  listener_callbacks : bool;
  model_dialogs : bool;
  inline_depth : int;
  max_iterations : int;
}

let default =
  {
    cast_filtering = true;
    findone_refinement = true;
    listener_callbacks = true;
    model_dialogs = true;
    inline_depth = 0;
    max_iterations = 1000;
  }

let baseline =
  {
    cast_filtering = false;
    findone_refinement = false;
    listener_callbacks = false;
    model_dialogs = false;
    inline_depth = 0;
    max_iterations = 1000;
  }
