(* Generated blocks in a markdown document, re-rendered from committed
   artifacts.  A block is

     <!-- docs SOURCE [METRIC ...] -->
     | the rendered table |
     <!-- /docs -->

   where SOURCE is a path relative to the document.  The begin comment may
   run over several lines, up to the first line that ends in "-->".  Every
   line outside the blocks, the two comments included, is copied as it is,
   so rendering a rendered document gives back the same bytes. *)

exception Fail of string

let fail file line fmt =
  Printf.ksprintf (fun s -> raise (Fail (Printf.sprintf "%s:%d: %s" file line s))) fmt

let begin_prefix = "<!-- docs "
let end_marker = "<!-- /docs -->"

(* The lines of [path], numbered from 1.  A final newline leaves an empty
   last line, so joining the lines with '\n' gives back the bytes. *)
let numbered_lines path =
  let ic = open_in_bin path in
  let text =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  List.mapi (fun i l -> (i + 1, l)) (String.split_on_char '\n' text)

let markdown header rows =
  let row cells = "| " ^ String.concat " | " cells ^ " |" in
  row header
  :: ("|" ^ String.concat "|" (List.map (fun _ -> "---") header) ^ "|")
  :: List.map row rows

(* A [Stats.Table.render] line: padded cells joined by a two-space gap. *)
let gap_cells line =
  let line = String.trim line in
  let n = String.length line in
  let rec cells start i acc =
    if i >= n then List.rev (String.sub line start (n - start) :: acc)
    else if line.[i] = ' ' && line.[i + 1] = ' ' then begin
      let j = ref i in
      while line.[!j] = ' ' do
        incr j
      done;
      cells !j !j (String.sub line start (i - start) :: acc)
    end
    else cells start (i + 1) acc
  in
  if n = 0 then [] else cells 0 0 []

(* A markdown row "| a | b |": the cells between its first and last '|'. *)
let pipe_cells line =
  match List.rev (String.split_on_char '|' line) with
  | _ :: cells -> List.tl (List.rev_map String.trim cells)
  | [] -> []

(* The first table of [src], as (line, cells) with the header first: the
   first run of '|' lines of a [.md] file, else a [Stats.Table] text
   (header, rule, rows up to a blank line). *)
let source_rows src =
  let lines = numbered_lines src in
  if Filename.extension src = ".md" then
    let is_row (_, l) = String.starts_with ~prefix:"|" l in
    let rec skip = function l :: ls when not (is_row l) -> skip ls | ls -> take ls
    and take = function l :: ls when is_row l -> l :: take ls | _ -> [] in
    match skip lines with
    | header :: _rule :: rows -> List.map (fun (n, l) -> (n, pipe_cells l)) (header :: rows)
    | _ -> []
  else
    let rec take = function
      | (n, l) :: ls when String.trim l <> "" -> (n, gap_cells l) :: take ls
      | _ -> []
    in
    match lines with (n, header) :: _rule :: rows -> (n, gap_cells header) :: take rows | _ -> []

let source_table src =
  match source_rows src with
  | [] -> fail src 1 "no table"
  | (_, header) :: body ->
      List.iter
        (fun (n, cells) ->
          if List.length cells <> List.length header then
            fail src n "row has %d cells, its header %d" (List.length cells) (List.length header))
        body;
      markdown header (List.map snd body)

(* One row per metric and one column per workload of an e2e report's
   [layers], with the decimals its unit calls for. *)
let layer_table ~doc ~line src metrics =
  let module J = Obs.Export in
  let json =
    match J.parse (String.concat "\n" (List.map snd (numbered_lines src))) with
    | Ok j -> j
    | Error e -> fail src 1 "%s" e
  in
  let workloads = match J.find json [ "workloads" ] with Some (J.List ws) -> ws | _ -> [] in
  if metrics = [] || workloads = [] then fail doc line "%s: no metric or no workload" src;
  let name w =
    match J.find w [ "name" ] with Some (J.String s) -> s | _ -> fail src 1 "a workload has no name"
  in
  let cell metric w =
    let field f = J.find w [ "layers"; metric; f ] in
    match (field "value", field "unit") with
    | Some J.Null, _ -> "-"
    | Some v, Some (J.String unit) -> (
        let decimals =
          match unit with
          | "ns" | "count" -> 0
          | "words" -> 1
          | u -> fail doc line "%s: no rendering for unit %s" metric u
        in
        match J.number v with
        | Some x -> Printf.sprintf "%.*f" decimals x
        | None -> fail doc line "%s: %s of %s is not a number" src metric (name w))
    | _ -> fail doc line "%s has no layer %s in workload %s" src metric (name w)
  in
  markdown
    ("metric" :: List.map (fun w -> "`" ^ name w ^ "`") workloads)
    (List.map (fun m -> ("`" ^ m ^ "`") :: List.map (cell m) workloads) metrics)

let block ~doc ~line = function
  | [] -> fail doc line "the block names no source"
  | src :: args -> (
      let src = Filename.concat (Filename.dirname doc) src in
      if not (Sys.file_exists src) then fail doc line "no source %s" src;
      match Filename.extension src with
      | ".json" -> layer_table ~doc ~line src args
      | _ when args <> [] -> fail doc line "%s takes no metric" src
      | _ -> source_table src)

let render_exn doc =
  let out = ref [] in
  let emit l = out := l :: !out in
  let rec copy = function
    | [] -> ()
    | ((n, l) :: _) as lines when String.starts_with ~prefix:begin_prefix l -> opening n [] lines
    | (_, l) :: rest ->
        emit l;
        copy rest
  and opening start acc = function
    | [] -> fail doc start "unterminated block: its begin comment has no -->"
    | (_, l) :: rest ->
        emit l;
        let acc = l :: acc in
        if String.ends_with ~suffix:"-->" (String.trim l) then begin
          let text = String.trim (String.concat " " (List.rev acc)) in
          let p = String.length begin_prefix in
          String.sub text p (String.length text - p - 3)
          |> String.split_on_char ' '
          |> List.filter (fun w -> w <> "")
          |> block ~doc ~line:start
          |> List.iter emit;
          body start rest
        end
        else opening start acc rest
  and body start = function
    | (_, l) :: rest when l = end_marker ->
        emit l;
        copy rest
    | (_, l) :: rest when not (String.starts_with ~prefix:begin_prefix l) -> body start rest
    | _ -> fail doc start "unterminated block: no %s before the next block or the end" end_marker
  in
  copy (numbered_lines doc);
  String.concat "\n" (List.rev !out)

let render doc = match render_exn doc with s -> Ok s | exception (Fail e | Sys_error e) -> Error e
