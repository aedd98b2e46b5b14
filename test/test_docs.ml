(* `tva_sim docs`: generated blocks re-rendered from a small fixture of each
   source kind, the renderer as a fixed point, and each error naming the
   file and line at fault. *)

let write path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* A fresh directory holding [files], removed after [f] runs on it. *)
let with_dir files f =
  let dir = Filename.temp_dir "tva_docs" "" in
  List.iter (fun (name, text) -> write (Filename.concat dir name) text) files;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let text_table =
  let t = Stats.Table.create ~columns:[ "variant"; "fraction" ] in
  Stats.Table.add_row t [ "per-path-id DRR"; "1.000" ];
  Stats.Table.add_row t [ "SFQ, 8 buckets"; "0.231" ];
  Stats.Table.render t

let report_md = "# Report\n\n| scheme | jain |\n|---|---|\n| `tva` | 1.000 |\n\n| later | table |\n|---|---|\n"

let e2e_json =
  let open Obs.Export in
  let layer unit value = Obj [ ("unit", String unit); ("value", value) ] in
  let workload name ns words =
    Obj
      [
        ("name", String name);
        ( "layers",
          Obj
            [
              ("loop_ns", layer "ns" (Float ns));
              ("minor_words", layer "words" (Float words));
              ("pkts", layer "count" Null);
            ] );
      ]
  in
  to_string_pretty (Obj [ ("workloads", List [ workload "w1" 263.4 19.25; workload "w2" 1.5 0. ]) ])

let fixture =
  [ ("t.txt", text_table); ("r.md", report_md); ("e.json", e2e_json) ]

let doc =
  "# Doc\n\n<!-- docs t.txt -->\n| stale |\n<!-- /docs -->\n\nprose 1.0\n\n<!-- docs r.md -->\n<!-- /docs -->\n<!-- docs e.json\n  loop_ns minor_words pkts -->\n| stale |\n| rows |\n<!-- /docs -->\n"

let rendered =
  "# Doc\n\n<!-- docs t.txt -->\n| variant | fraction |\n|---|---|\n| per-path-id DRR | 1.000 |\n\
   | SFQ, 8 buckets | 0.231 |\n<!-- /docs -->\n\nprose 1.0\n\n<!-- docs r.md -->\n\
   | scheme | jain |\n|---|---|\n| `tva` | 1.000 |\n<!-- /docs -->\n<!-- docs e.json\n\
  \  loop_ns minor_words pkts -->\n| metric | `w1` | `w2` |\n|---|---|---|\n\
   | `loop_ns` | 263 | 2 |\n| `minor_words` | 19.2 | 0.0 |\n| `pkts` | - | - |\n<!-- /docs -->\n"

let render_fixture () =
  with_dir (("doc.md", doc) :: fixture) (fun dir ->
      let path = Filename.concat dir "doc.md" in
      let first = match Docs.render path with Ok s -> s | Error e -> Alcotest.fail e in
      Alcotest.(check string) "every block re-rendered" rendered first;
      write path first;
      Alcotest.(check (result string string)) "a rendered document renders to itself" (Ok first)
        (Docs.render path))

let errors_name_file_and_line () =
  let fails name ~doc ~extra ~at ~mentions =
    with_dir (("doc.md", doc) :: (extra @ fixture)) (fun dir ->
        let prefix = Filename.concat dir at ^ ":" in
        match Docs.render (Filename.concat dir "doc.md") with
        | Ok _ -> Alcotest.failf "%s: rendered" name
        | Error e ->
            if not (String.starts_with ~prefix e) then
              Alcotest.failf "%s: %S does not start with %S" name e prefix;
            let rec has i =
              i + String.length mentions <= String.length e
              && (String.sub e i (String.length mentions) = mentions || has (i + 1))
            in
            if not (has 0) then Alcotest.failf "%s: %S does not mention %S" name e mentions)
  in
  fails "unterminated block" ~doc:"x\n<!-- docs t.txt -->\n| stale |\n" ~extra:[] ~at:"doc.md:2"
    ~mentions:"unterminated";
  fails "block cut by the next block"
    ~doc:"<!-- docs t.txt -->\n\n<!-- docs r.md -->\n<!-- /docs -->\n" ~extra:[]
    ~at:"doc.md:1" ~mentions:"unterminated";
  fails "begin comment never closed" ~doc:"\n\n<!-- docs e.json loop_ns\n" ~extra:[]
    ~at:"doc.md:3" ~mentions:"-->";
  fails "missing source" ~doc:"<!-- docs gone.txt -->\n<!-- /docs -->\n" ~extra:[]
    ~at:"doc.md:1" ~mentions:"gone.txt";
  fails "row and header differ" ~doc:"\n<!-- docs bad.txt -->\n<!-- /docs -->\n"
    ~extra:[ ("bad.txt", "a  b\n----\n1  2\n3\n") ]
    ~at:"bad.txt:4" ~mentions:"1 cells";
  fails "markdown row and header differ" ~doc:"<!-- docs bad.md -->\n<!-- /docs -->\n"
    ~extra:[ ("bad.md", "text\n| a | b |\n|---|---|\n| 1 | 2 | 3 |\n") ]
    ~at:"bad.md:4" ~mentions:"3 cells";
  fails "layer metric the JSON lacks" ~doc:"\n\n\n<!-- docs e.json loop_ns nope -->\n<!-- /docs -->\n"
    ~extra:[] ~at:"doc.md:4" ~mentions:"nope"

let suite =
  [
    Alcotest.test_case "docs: blocks rendered from each source kind, a fixed point" `Quick
      render_fixture;
    Alcotest.test_case "docs: errors name the file and line" `Quick errors_name_file_and_line;
  ]
