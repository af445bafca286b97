let tclass c = Ast.Tclass c

let new_ x c = Ast.New (x, c)

let copy x y = Ast.Copy (x, y)

let read x y f = Ast.Read_field (x, y, f)

let write x f y = Ast.Write_field (x, f, y)

let layout_id x name = Ast.Read_layout_id (x, name)

let view_id x name = Ast.Read_view_id (x, name)

let layout_top x = Ast.Read_layout_top x

let view_id_top x = Ast.Read_view_top x

let const x n = Ast.Const_int (x, n)

let null x = Ast.Const_null x

let cast x c y = Ast.Cast (x, c, y)

let call ?into recv m args = Ast.Invoke (into, recv, m, args)

let ret ?value () = Ast.Return value

let meth ?(params = []) ?ret ?(locals = []) name body =
  { Ast.m_name = name; m_params = params; m_ret = ret; m_locals = locals; m_body = body }

let cls ?(kind = `Class) ?extends ?(implements = []) ?(fields = []) ?(methods = []) name =
  {
    Ast.c_name = name;
    c_kind = kind;
    c_super = extends;
    c_interfaces = implements;
    c_fields = fields;
    c_methods = methods;
  }

let program classes = { Ast.p_classes = classes }
