type link_target = Bottleneck | Bottleneck_rev | Access_links | All_links
type router_target = Left | Right | All_routers
type target = Link of link_target | Router of router_target

type kind =
  | Loss of { p : float }
  | Burst of { p_gb : float; p_bg : float; p_bad : float; p_good : float }
  | Corrupt of { p : float }
  | Dup of { p : float }
  | Reorder of { p : float; delay : float }
  | Down of { at : float; dur : float }
  | Flap of { at : float; until : float; period : float; down : float }
  | Wipe of { at : float; every : float option }
  | Rotate of { at : float; every : float option }
  | Restart of { at : float; dur : float }

type clause = { kind : kind; target : target }
type t = clause list

let kind_name = function
  | Loss _ -> "loss"
  | Burst _ -> "burst"
  | Corrupt _ -> "corrupt"
  | Dup _ -> "dup"
  | Reorder _ -> "reorder"
  | Down _ -> "down"
  | Flap _ -> "flap"
  | Wipe _ -> "wipe"
  | Rotate _ -> "rotate"
  | Restart _ -> "restart"

let link_target_name = function
  | Bottleneck -> "bottleneck"
  | Bottleneck_rev -> "rbottleneck"
  | Access_links -> "access"
  | All_links -> "all"

let router_target_name = function Left -> "left" | Right -> "right" | All_routers -> "all"

let target_name = function
  | Link lt -> link_target_name lt
  | Router rt -> router_target_name rt

(* %g is compact and round-trips every value we emit through
   [float_of_string] (it may lose bits on pathological literals a user
   typed, but [to_string] only prints what [parse] already produced). *)
let f = Printf.sprintf "%g"

let params_of_kind = function
  | Loss { p } | Corrupt { p } | Dup { p } -> [ ("p", f p) ]
  | Burst { p_gb; p_bg; p_bad; p_good } ->
      [ ("pgb", f p_gb); ("pbg", f p_bg); ("pbad", f p_bad) ]
      @ (if p_good > 0. then [ ("pgood", f p_good) ] else [])
  | Reorder { p; delay } -> [ ("p", f p); ("delay", f delay) ]
  | Down { at; dur } -> [ ("at", f at); ("for", f dur) ]
  | Flap { at; until; period; down } ->
      [ ("at", f at) ]
      @ (if until < infinity then [ ("until", f until) ] else [])
      @ [ ("period", f period); ("down", f down) ]
  | Wipe { at; every } | Rotate { at; every } ->
      [ ("at", f at) ] @ (match every with None -> [] | Some e -> [ ("every", f e) ])
  | Restart { at; dur } -> [ ("at", f at); ("for", f dur) ]

let clause_to_string c =
  let params = params_of_kind c.kind in
  let head = kind_name c.kind ^ ":" ^ target_name c.target in
  if params = [] then head
  else head ^ ":" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) params)

let to_string t = String.concat ";" (List.map clause_to_string t)

(* --- parsing --------------------------------------------------------- *)

let ( let* ) = Result.bind

let parse_link_target ~clause = function
  | "bottleneck" -> Ok Bottleneck
  | "rbottleneck" -> Ok Bottleneck_rev
  | "access" -> Ok Access_links
  | "all" -> Ok All_links
  | s -> Error (Printf.sprintf "%s: %S is not a link target" clause s)

let parse_router_target ~clause = function
  | "left" -> Ok Left
  | "right" -> Ok Right
  | "all" -> Ok All_routers
  | s -> Error (Printf.sprintf "%s: %S is not a router target" clause s)

let parse_params ~clause s =
  if String.trim s = "" then Ok []
  else
    List.fold_left
      (fun acc kv ->
        let* acc = acc in
        match String.index_opt kv '=' with
        | None -> Error (Printf.sprintf "%s: parameter %S is not key=value" clause kv)
        | Some i ->
            let key = String.trim (String.sub kv 0 i) in
            let v = String.trim (String.sub kv (i + 1) (String.length kv - i - 1)) in
            (match float_of_string_opt v with
            | Some x -> Ok ((key, x) :: acc)
            | None -> Error (Printf.sprintf "%s: %S is not a number" clause v)))
      (Ok []) (String.split_on_char ',' s)

let take ~clause params key =
  match List.assoc_opt key params with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing parameter %S" clause key)

let take_opt params key = List.assoc_opt key params

let take_default params key d = match List.assoc_opt key params with Some v -> v | None -> d

let check_prob ~clause key v =
  if v >= 0. && v <= 1. then Ok v
  else Error (Printf.sprintf "%s: %s=%g is not a probability" clause key v)

let check_keys ~clause ~allowed params =
  List.fold_left
    (fun acc (k, _) ->
      let* () = acc in
      if List.mem k allowed then Ok ()
      else Error (Printf.sprintf "%s: unknown parameter %S" clause k))
    (Ok ()) params

let parse_clause s =
  let clause = String.trim s in
  let parts = String.split_on_char ':' clause in
  let* kw, tgt, params_str =
    match parts with
    | [ kw; tgt ] -> Ok (String.trim kw, String.trim tgt, "")
    | [ kw; tgt; params ] -> Ok (String.trim kw, String.trim tgt, params)
    | _ -> Error (Printf.sprintf "%s: expected kind:target[:params]" clause)
  in
  let* params = parse_params ~clause params_str in
  let prob key =
    let* v = take ~clause params key in
    check_prob ~clause key v
  in
  let prob_default key d =
    match take_opt params key with Some v -> check_prob ~clause key v | None -> Ok d
  in
  let link kind ~allowed =
    let* () = check_keys ~clause ~allowed params in
    let* k = kind in
    let* lt = parse_link_target ~clause tgt in
    Ok { kind = k; target = Link lt }
  in
  let router kind ~allowed =
    let* () = check_keys ~clause ~allowed params in
    let* k = kind in
    let* rt = parse_router_target ~clause tgt in
    Ok { kind = k; target = Router rt }
  in
  match kw with
  | "loss" ->
      link ~allowed:[ "p" ]
        (let* p = prob "p" in
         Ok (Loss { p }))
  | "burst" ->
      link
        ~allowed:[ "pgb"; "pbg"; "pbad"; "pgood" ]
        (let* p_gb = prob "pgb" in
         let* p_bg = prob "pbg" in
         let* p_bad = prob "pbad" in
         let* p_good = prob_default "pgood" 0. in
         Ok (Burst { p_gb; p_bg; p_bad; p_good }))
  | "corrupt" ->
      link ~allowed:[ "p" ]
        (let* p = prob "p" in
         Ok (Corrupt { p }))
  | "dup" ->
      link ~allowed:[ "p" ]
        (let* p = prob "p" in
         Ok (Dup { p }))
  | "reorder" ->
      link ~allowed:[ "p"; "delay" ]
        (let* p = prob "p" in
         let delay = take_default params "delay" 0.05 in
         Ok (Reorder { p; delay }))
  | "down" ->
      link ~allowed:[ "at"; "for" ]
        (let* at = take ~clause params "at" in
         let dur = take_default params "for" 1.0 in
         Ok (Down { at; dur }))
  | "flap" ->
      link
        ~allowed:[ "at"; "until"; "period"; "down" ]
        (let* period = take ~clause params "period" in
         let at = take_default params "at" 0. in
         let until = take_default params "until" infinity in
         let down = take_default params "down" (period /. 2.) in
         if period <= 0. then Error (Printf.sprintf "%s: period must be positive" clause)
         else Ok (Flap { at; until; period; down }))
  | "wipe" ->
      router ~allowed:[ "at"; "every" ]
        (let* at = take ~clause params "at" in
         Ok (Wipe { at; every = take_opt params "every" }))
  | "rotate" ->
      router ~allowed:[ "at"; "every" ]
        (let* at = take ~clause params "at" in
         Ok (Rotate { at; every = take_opt params "every" }))
  | "restart" ->
      router ~allowed:[ "at"; "for" ]
        (let* at = take ~clause params "at" in
         let dur = take_default params "for" 0.5 in
         Ok (Restart { at; dur }))
  | _ -> Error (Printf.sprintf "%s: unknown fault kind %S" clause kw)

let parse s =
  let clauses =
    List.filter (fun c -> String.trim c <> "") (String.split_on_char ';' s)
  in
  if clauses = [] then Error "empty fault spec"
  else
    List.fold_left
      (fun acc c ->
        let* acc = acc in
        let* clause = parse_clause c in
        Ok (clause :: acc))
      (Ok []) clauses
    |> Result.map List.rev
