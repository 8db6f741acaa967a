(* The served side: an [an5d serve --socket] process set up as the CLI
   sets it up (one session domain, unlimited admission, [--workers N]
   where asked), and a closed-loop client on one Unix-domain
   connection speaking the framed wire protocol. *)

module Wire = An5d_serve.Wire

type server = { pid : int; sock : string; fd : Unix.file_descr }

exception Server_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Server_error s)) fmt

let rec connect_retry sock deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
      Unix.close fd;
      if Unix.gettimeofday () > deadline then fail "server did not listen on %s" sock;
      Unix.sleepf 0.0005;
      connect_retry sock deadline

let request fd frame =
  (match Wire.write_frame fd frame with Ok () -> () | Error e -> fail "write: %s" e);
  match Wire.read_frame fd with
  | Ok f -> f
  | Error e -> fail "read: %s" (Wire.read_error_to_string e)

(* Start the server and complete the handshake. [log] receives the
   server's standard output and error. *)
let start ~exe ~sock ~log ~workers =
  (try Sys.remove sock with Sys_error _ -> ());
  let args =
    Array.append [| exe; "serve"; "--socket"; sock |]
      (if workers > 1 then [| "--workers"; string_of_int workers |] else [||])
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  (* standard input: an empty pipe, closed at once *)
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe args stdin_r out out in
  List.iter Unix.close [ out; stdin_r; stdin_w ];
  let kill () =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)
  in
  match connect_retry sock (Unix.gettimeofday () +. 60.0) with
  | exception e ->
      kill ();
      raise e
  | fd -> (
      match request fd (Wire.Hello { version = Wire.version; client = "bench" }) with
      | Wire.Hello _ -> { pid; sock; fd }
      | f ->
          kill ();
          fail "handshake answered %s" (Format.asprintf "%a" Wire.pp_frame f)
      | exception e ->
          kill ();
          raise e)

(* One request; the frame is written and the response decoded by the
   caller's clock. *)
let send srv ~id line =
  match request srv.fd (Wire.Request { id = Some id; line }) with
  | Wire.Response { status; served; payload; _ } ->
      { Workload.status; served; payload }
  | Wire.Error { message; _ } -> { Workload.status = "error"; served = ""; payload = Wire.Str message }
  | f -> fail "unexpected frame %s" (Format.asprintf "%a" Wire.pp_frame f)

let stats srv =
  match request srv.fd (Wire.Stats { body = Wire.Null }) with
  | Wire.Stats { body } -> body
  | _ -> Wire.Null

(* Direct children of [pid], from /proc. *)
let children pid =
  match Sys.readdir "/proc" with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.filter_map (fun e ->
             match int_of_string_opt e with
             | None -> None
             | Some p -> (
                 match In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" p) In_channel.input_all with
                 | exception Sys_error _ -> None
                 | s -> (
                     (* pid (comm) state ppid ...; comm may contain spaces *)
                     match String.rindex_opt s ')' with
                     | None -> None
                     | Some i -> (
                         match String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2)) with
                         | _ :: ppid :: _ when int_of_string_opt ppid = Some pid -> Some p
                         | _ -> None))))

let vm_hwm_kb pid =
  match In_channel.with_open_bin (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | exception Sys_error _ -> 0
  | s ->
      String.split_on_char '\n' s
      |> List.find_map (fun l ->
             if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
               Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Option.some
             else None)
      |> Option.value ~default:0

(* Peak resident memory of the server and its workers, MiB. *)
let peak_rss_mb srv =
  let kb = List.fold_left (fun acc p -> acc + vm_hwm_kb p) (vm_hwm_kb srv.pid) (children srv.pid) in
  float_of_int kb /. 1024.0

(* A zombie counts as ended: it runs nothing and its reaper is init. *)
let alive pid =
  match In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all with
  | exception Sys_error _ -> false
  | s -> (
      match String.rindex_opt s ')' with
      | Some i when i + 2 < String.length s -> s.[i + 2] <> 'Z'
      | _ -> false)

(* Stop the server (SIGTERM, then SIGKILL after 10 s) and wait until it
   and its worker processes are gone. *)
let stop srv =
  let kids = children srv.pid in
  (try Unix.close srv.fd with Unix.Unix_error _ -> ());
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.005;
        reap ()
    | 0, _ ->
        (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] srv.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  List.iter
    (fun p ->
      let deadline = Unix.gettimeofday () +. 10.0 in
      while alive p && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.005
      done;
      if alive p then try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
    kids;
  try Sys.remove srv.sock with Sys_error _ -> ()
