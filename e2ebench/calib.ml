(* The calibration kernel: every timed interval is scaled to a reference
   host speed by the ratio between this kernel's reference time and its
   time measured beside the interval, on the same CPU.

   The kernel is one STREAM-triad pass over three 4 MiB float64 arrays
   (twice the 2 MiB L2) plus two sweeps of a 5-point Jacobi stencil over
   a 384 x 384 float array: memory streaming and cache-resident
   floating point, the two things the simulator's executors spend their
   time on. A pure integer loop was tried and tracks the served time
   worse, because the host's slowdowns come mostly from memory
   contention, not from the core clock. A measurement is the fastest of
   three repeats of each part, which drops a preemption inside one
   repeat but keeps slowdowns lasting longer than a few milliseconds. *)

open Bigarray

let n = 1 lsl 19

let m = 384

type state = {
  a : (float, float64_elt, c_layout) Array1.t;
  b : (float, float64_elt, c_layout) Array1.t;
  c : (float, float64_elt, c_layout) Array1.t;
  g0 : float array;
  g1 : float array;
}

let state =
  lazy
    (let mk v =
       let a = Array1.create float64 c_layout n in
       Array1.fill a v;
       a
     in
     { a = mk 0.0; b = mk 1.0; c = mk 2.0;
       g0 = Array.init (m * m) (fun i -> float_of_int (i mod 7)); g1 = Array.make (m * m) 0.0 })

(* Reference time of one measurement, in milliseconds: about the
   fastest seen on the 2-vCPU development host. Scaled intervals read
   as if the host always ran at that speed. *)
let reference_ms = 2.0

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  (Unix.gettimeofday () -. t0) *. 1e3

let triad s () =
  for i = 0 to n - 1 do
    Array1.set s.a i (Array1.get s.b i +. (0.5 *. Array1.get s.c i))
  done

let jacobi s () =
  for _ = 1 to 2 do
    for i = 1 to m - 2 do
      for j = 1 to m - 2 do
        let k = (i * m) + j in
        Array.set s.g1 k
          (0.2
          *. (Array.get s.g0 k +. Array.get s.g0 (k - 1)
             +. Array.get s.g0 (k + 1) +. Array.get s.g0 (k - m)
             +. Array.get s.g0 (k + m)))
      done
    done;
    Array.blit s.g1 0 s.g0 0 (m * m)
  done

let min3 f = Float.min (timed f) (Float.min (timed f) (timed f))

(* One measurement, in milliseconds. *)
let measure () =
  let s = Lazy.force state in
  min3 (triad s) +. min3 (jacobi s)

(* Warm-up: page in the arrays and settle the kernel's own caches. *)
let warm_up () =
  for _ = 1 to 3 do
    ignore (measure ())
  done

(* The factor that converts a raw interval measured between two
   calibrations [c0] and [c1] to reference speed. *)
let factor c0 c1 = reference_ms /. ((c0 +. c1) /. 2.0)
