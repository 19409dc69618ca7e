(* Child daemons and what /proc says about them. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Every daemon still running, so an early exit can stop it. *)
let children : int list ref = ref []

let spawn ~exe ~args ~log =
  let out = Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out)
      (fun () ->
        Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out out)
  in
  children := pid :: !children;
  pid

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
    | exception Unix.Unix_error (ECHILD, _, _) -> ()
  in
  go ();
  children := List.filter (( <> ) pid) !children

let kill9 pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

let kill_all () = List.iter kill9 !children

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ ->
      children := List.filter (( <> ) pid) !children;
      true
  | exception Unix.Unix_error (ECHILD, _, _) -> true

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Poll until the daemon answers [Health]; fails if it exits first or
   takes longer than [timeout] seconds. *)
let wait_ready ~pid ~socket ~log ~timeout =
  let t0 = now_ns () in
  let rec poll () =
    if exited pid then
      failwith (Printf.sprintf "daemon exited before ready:\n%s" (read_file log))
    else if seconds_since t0 > timeout then failwith "daemon not ready in time"
    else
      match Pmp_server.Client.connect_unix ~proto:Binary socket with
      | Error _ ->
          Unix.sleepf 0.0002;
          poll ()
      | Ok c -> (
          let r = Pmp_server.Client.request c Pmp_server.Protocol.Health in
          Pmp_server.Client.close c;
          match r with
          | Ok (Pmp_server.Protocol.Health_reply _) -> ()
          | Ok _ | Error _ ->
              Unix.sleepf 0.0002;
              poll ())
  in
  poll ()

(* Nanoseconds on CPU, summed over the process's threads, from
   /proc/<pid>/task/<tid>/schedstat. *)
let cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match read_file (Printf.sprintf "%s/%s/schedstat" dir tid) with
      | s -> acc + Scanf.sscanf s "%d" Fun.id
      | exception Sys_error _ -> acc)
    0 (Sys.readdir dir)

(* This process's CPU time in seconds (getrusage, microseconds). *)
let process_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let self_cpu_ns () = Scanf.sscanf (read_file "/proc/self/schedstat") "%d" Fun.id

(* Peak resident set (VmHWM) in MB. *)
let rss_peak_mb pid =
  read_file (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         try Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
         with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
  |> Option.value ~default:0.0

let rec fold_files f acc path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.fold_left
        (fun acc e -> fold_files f acc (Filename.concat path e))
        acc (Sys.readdir path)
  | Unix.S_REG -> f acc path (Unix.lstat path).Unix.st_size
  | _ -> acc
  | exception Unix.Unix_error (ENOENT, _, _) -> acc

let du path = fold_files (fun acc _ size -> acc + size) 0 path

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

(* The file system type of the mount holding [path]. *)
let fs_type path =
  let target = Unix.realpath path in
  let prefix m =
    m = "/"
    || String.length target >= String.length m
       && String.sub target 0 (String.length m) = m
       && (String.length target = String.length m
          || target.[String.length m] = '/')
  in
  read_file "/proc/mounts" |> String.split_on_char '\n'
  |> List.fold_left
       (fun best line ->
         match String.split_on_char ' ' line with
         | _ :: mnt :: fs :: _ when prefix mnt -> (
             match best with
             | Some (m, _) when String.length m >= String.length mnt -> best
             | _ -> Some (mnt, fs))
         | _ -> best)
       None
  |> Option.fold ~none:"unknown" ~some:snd
