(* A minimal JSON value and serializer.  No JSON library ships in this
   environment, so exports are built by hand; the emitter guarantees valid
   JSON (strings escaped, no NaN/Infinity — callers convert those to
   [Null] via [number_or_null], which is how "no data" is distinguished
   from a real zero downstream). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let number_or_null x =
  if Float.is_nan x || x = infinity || x = neg_infinity then Null else Float x

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_float buf x =
  if Float.is_nan x || x = infinity || x = neg_infinity then Buffer.add_string buf "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" x)
  else Buffer.add_string buf (Printf.sprintf "%.9g" x)

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> add_float buf x
  | String s -> escape buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ", ";
          to_buffer buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          escape buf k;
          Buffer.add_string buf ": ";
          to_buffer buf v)
        kvs;
      Buffer.add_char buf '}'

(* Pretty variant: objects and lists one entry per line, two-space indent.
   The stats files are meant to be read (and diffed) by humans and grepped
   by the bench comparators, both of which want one "key": value per line. *)
let rec to_buffer_pretty buf ~indent v =
  let pad n = Buffer.add_string buf (String.make n ' ') in
  match v with
  | Null | Bool _ | Int _ | Float _ | String _ -> to_buffer buf v
  | List [] -> Buffer.add_string buf "[]"
  | List xs ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (indent + 2);
          to_buffer_pretty buf ~indent:(indent + 2) x)
        xs;
      Buffer.add_char buf '\n';
      pad indent;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj kvs ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (indent + 2);
          escape buf k;
          Buffer.add_string buf ": ";
          to_buffer_pretty buf ~indent:(indent + 2) v)
        kvs;
      Buffer.add_char buf '\n';
      pad indent;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* A recursive-descent parser for the subset this module emits (all of
   JSON except exotic number forms; numbers with '.', 'e' or 'E' become
   [Float], the rest [Int]).  Exists so flight-recorder dumps and stats
   files round-trip through [t] in tests and tooling — not a general
   validator, but it rejects everything it cannot represent. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let error fmt = Printf.ksprintf (fun m -> raise (Failure (Printf.sprintf "at %d: %s" !pos m))) fmt in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos else error "expected %c" c
  in
  let literal lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit then begin
      pos := !pos + String.length lit;
      v
    end
    else error "bad literal"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            (if !pos >= n then error "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; incr pos
               | '\\' -> Buffer.add_char buf '\\'; incr pos
               | '/' -> Buffer.add_char buf '/'; incr pos
               | 'n' -> Buffer.add_char buf '\n'; incr pos
               | 'r' -> Buffer.add_char buf '\r'; incr pos
               | 't' -> Buffer.add_char buf '\t'; incr pos
               | 'b' -> Buffer.add_char buf '\b'; incr pos
               | 'f' -> Buffer.add_char buf '\012'; incr pos
               | 'u' ->
                   if !pos + 4 >= n then error "bad \\u escape";
                   let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
                   (* The emitter only writes \u00XX control codes; decode
                      the Latin-1 range, reject the rest. *)
                   if code > 0xff then error "unsupported \\u escape %04x" code;
                   Buffer.add_char buf (Char.chr code);
                   pos := !pos + 5
               | c -> error "bad escape \\%c" c);
            go ()
        | c -> Buffer.add_char buf c; incr pos; go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' -> true
      | '.' | 'e' | 'E' ->
          is_float := true;
          true
      | _ -> false
    do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt tok with Some f -> Float f | None -> error "bad number %S" tok
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with Some f -> Float f | None -> error "bad number %S" tok)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then (incr pos; Obj [])
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; members ((k, v) :: acc)
            | Some '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> error "expected , or } in object"
          in
          members []
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then (incr pos; List [])
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; elements (v :: acc)
            | Some ']' -> incr pos; List (List.rev (v :: acc))
            | _ -> error "expected , or ] in array"
          in
          elements []
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> error "unexpected character %c" c
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then error "trailing garbage" else v
  with
  | v -> Ok v
  | exception Failure m -> Error m

let to_string_pretty v =
  let buf = Buffer.create 1024 in
  to_buffer_pretty buf ~indent:0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let rec find v = function
  | [] -> Some v
  | k :: rest -> (
      match v with
      | Obj kv -> Option.bind (List.assoc_opt k kv) (fun v -> find v rest)
      | _ -> None)

let number = function Int i -> Some (float_of_int i) | Float f -> Some f | _ -> None
