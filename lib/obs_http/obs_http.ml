(* A deliberately minimal HTTP/1.1 listener on stdlib Unix + threads: one
   accept thread, sequential request handling, Connection: close on every
   response.  It exists to serve /metrics and /health to a scraper or a
   curl, not to be a web server; anything beyond "GET <path>" gets a 400.

   The handler runs on the accept thread while the instrumented run mutates
   the registry on the main thread; callers are expected to guard their
   snapshot with [Obs.Monitor.locked] (systhreads interleave, they do not
   run in parallel, but a hashtable mid-resize is still not snapshot-safe).
   It is a library of its own so that [obs], and the lock stack that links
   it, needs neither [unix] nor [threads]. *)

type response = { status : int; content_type : string; body : string }

type t = {
  socket : Unix.file_descr;
  bound_port : int;
  mutable stopping : bool;
  mutable thread : Thread.t option;
}

let reason_of = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | _ -> "Error"

let write_response fd { status; content_type; body } =
  let head =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\n\
       Content-Type: %s\r\n\
       Content-Length: %d\r\n\
       Connection: close\r\n\
       \r\n"
      status (reason_of status) content_type (String.length body)
  in
  let payload = Bytes.of_string (head ^ body) in
  let length = Bytes.length payload in
  let rec push offset =
    if offset < length then
      match Unix.write fd payload offset (length - offset) with
      | 0 -> ()
      | written -> push (offset + written)
  in
  try push 0 with Unix.Unix_error _ -> ()

(* Read until the blank line ending the request head (we never accept
   bodies), bounded so a hostile peer cannot grow the buffer. *)
let read_head fd =
  let chunk = Bytes.create 1024 in
  let buffer = Buffer.create 256 in
  let rec fill () =
    if Buffer.length buffer > 8192 then Buffer.contents buffer
    else
      let head = Buffer.contents buffer in
      let module S = String in
      let complete =
        S.length head >= 4
        &&
        let rec scan index =
          index >= 0
          && (S.sub head index 4 = "\r\n\r\n" || scan (index - 1))
        in
        scan (S.length head - 4)
      in
      if complete then head
      else
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Buffer.contents buffer
        | received ->
          Buffer.add_subbytes buffer chunk 0 received;
          fill ()
        | exception Unix.Unix_error _ -> Buffer.contents buffer
  in
  fill ()

let not_found =
  { status = 404; content_type = "text/plain; charset=utf-8";
    body = "not found\n" }

let bad_request =
  { status = 400; content_type = "text/plain; charset=utf-8";
    body = "bad request\n" }

let method_not_allowed =
  { status = 405; content_type = "text/plain; charset=utf-8";
    body = "method not allowed\n" }

let respond handler head =
  match String.index_opt head '\r' with
  | None -> bad_request
  | Some eol -> (
    match String.split_on_char ' ' (String.sub head 0 eol) with
    | [ "GET"; target; _version ] -> (
      (* strip any ?query: /metrics?format=... still routes to /metrics *)
      let path =
        match String.index_opt target '?' with
        | None -> target
        | Some question -> String.sub target 0 question
      in
      match handler path with
      | Some response -> response
      | None -> not_found)
    | [ _method; _target; _version ] -> method_not_allowed
    | _ -> bad_request)

let serve_connection handler fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match read_head fd with
      | "" -> ()
      | head -> write_response fd (respond handler head))

let accept_loop server handler =
  let rec loop () =
    match Unix.accept server.socket with
    | client, _address ->
      (try serve_connection handler client
       with _ -> ());
      loop ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
      ()  (* [stop] closed the listening socket *)
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      if not server.stopping then loop ()
  in
  loop ()

let start ?(addr = "127.0.0.1") ~port handler =
  let socket = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt socket Unix.SO_REUSEADDR true;
     Unix.bind socket (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
     Unix.listen socket 16
   with exn ->
     (try Unix.close socket with Unix.Unix_error _ -> ());
     raise exn);
  let bound_port =
    match Unix.getsockname socket with
    | Unix.ADDR_INET (_, bound) -> bound
    | Unix.ADDR_UNIX _ -> port
  in
  let server = { socket; bound_port; stopping = false; thread = None } in
  server.thread <- Some (Thread.create (fun () -> accept_loop server handler) ());
  server

let port server = server.bound_port

let stop server =
  if not server.stopping then begin
    server.stopping <- true;
    (try Unix.shutdown server.socket Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try Unix.close server.socket with Unix.Unix_error _ -> ());
    match server.thread with
    | Some thread ->
      server.thread <- None;
      Thread.join thread
    | None -> ()
  end
