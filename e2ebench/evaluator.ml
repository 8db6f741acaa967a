(* The benchmark's own naive evaluator of the Table 3 expressions, kept
   apart from Stencil.Reference and the executors so that it checks them
   rather than repeats them. It walks the expression tree as written,
   in double precision, rounds to single precision on store for float
   grids, and copies boundary cells unchanged. Results are compared
   through Stencil.Grid.digest with the served grid_digest. *)

module Sexpr = Stencil.Sexpr
module Pattern = Stencil.Pattern
module Grid = Stencil.Grid

let round_f32 x = Int32.float_of_bits (Int32.bits_of_float x)

(* Row-major strides of [dims]. *)
let strides dims =
  let n = Array.length dims in
  let s = Array.make n 1 in
  for d = n - 2 downto 0 do
    s.(d) <- s.(d + 1) * dims.(d + 1)
  done;
  s

(* Compile the expression to a closure over (source, linear index). *)
let compile (p : Pattern.t) st =
  let rec go = function
    | Sexpr.Const c -> fun _ _ -> c
    | Sexpr.Coef o ->
        let v = Sexpr.coef_value o in
        fun _ _ -> v
    | Sexpr.Param s ->
        let v = Pattern.param_value p s in
        fun _ _ -> v
    | Sexpr.Cell o ->
        let d = ref 0 in
        Array.iteri (fun i k -> d := !d + (k * st.(i))) o;
        let d = !d in
        fun (a : float array) i -> Array.get a (i + d)
    | Sexpr.Neg e ->
        let f = go e in
        fun a i -> -.f a i
    | Sexpr.Add (x, y) ->
        let f = go x and g = go y in
        fun a i ->
          let u = f a i in
          u +. g a i
    | Sexpr.Sub (x, y) ->
        let f = go x and g = go y in
        fun a i ->
          let u = f a i in
          u -. g a i
    | Sexpr.Mul (x, y) ->
        let f = go x and g = go y in
        fun a i ->
          let u = f a i in
          u *. g a i
    | Sexpr.Div (x, y) ->
        let f = go x and g = go y in
        fun a i ->
          let u = f a i in
          u /. g a i
    | Sexpr.Sqrt e ->
        let f = go e in
        fun a i -> Float.sqrt (f a i)
  in
  go p.Pattern.expr

(* Linear indices of the interior cells: every coordinate at least
   [rad] away from both faces of its dimension. *)
let interior dims rad =
  let st = strides dims in
  let acc = ref [] in
  let n = Array.length dims in
  let rec walk d base =
    if d = n then acc := base :: !acc
    else
      for k = rad to dims.(d) - rad - 1 do
        walk (d + 1) (base + (k * st.(d)))
      done
  in
  walk 0 0;
  Array.of_list (List.rev !acc)

(* [run p ~prec ~seed ~steps dims] evolves the same seeded input grid
   the server builds and returns the final grid's digest. *)
let digest (p : Pattern.t) ~prec ~seed ~steps dims =
  let g0 = Grid.init_random ~prec ~seed dims in
  let src = ref (Grid.to_array g0) in
  let dst = ref (Array.copy !src) in
  let st = strides dims in
  let f = compile p st in
  let cells = interior dims p.Pattern.radius in
  let store = match prec with Grid.F32 -> round_f32 | Grid.F64 -> Fun.id in
  for _ = 1 to steps do
    let s = !src and d = !dst in
    Array.blit s 0 d 0 (Array.length s);
    Array.iter (fun i -> d.(i) <- store (f s i)) cells;
    src := d;
    dst := s
  done;
  let out = Grid.create ~prec dims in
  Array.iteri (fun i v -> Grid.set_lin out i v) !src;
  Grid.digest out
