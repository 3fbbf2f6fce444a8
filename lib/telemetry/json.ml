type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Exact of float
  | String of string
  | List of t list
  | Object of (string * t) list

(* --- printer ------------------------------------------------------------ *)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* %.12g when that reads back as the same double; %.17g always does. *)
let exact_text x =
  let s = Printf.sprintf "%.12g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float x | Exact x when not (Float.is_finite x) -> Buffer.add_char b '0'
  | Float x -> Printf.bprintf b "%.9g" x
  | Exact x -> Buffer.add_string b (exact_text x)
  | String s -> add_string b s
  | List l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
         if i > 0 then Buffer.add_char b ',';
         add b v)
      l;
    Buffer.add_char b ']'
  | Object ms ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Buffer.add_char b ',';
         add_string b k;
         Buffer.add_char b ':';
         add b v)
      ms;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 4096 in
  add b v;
  Buffer.contents b

(* --- parser ------------------------------------------------------------- *)

exception Syntax of int * string

let is_digit = function '0' .. '9' -> true | _ -> false

let hex_value = function
  | '0' .. '9' as c -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' as c -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' as c -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let parse_exn s =
  let n = String.length s and pos = ref 0 in
  let fail msg = raise (Syntax (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      match peek () with Some (' ' | '\t' | '\n' | '\r') -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> fail (Printf.sprintf "expected %c, found %c" c d)
    | None -> fail (Printf.sprintf "expected %c, found end of input" c)
  in
  let literal word v =
    let k = String.length word in
    if !pos + k <= n && String.sub s !pos k = word then begin
      pos := !pos + k;
      v
    end
    else fail (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let hex4 () =
    let v = ref 0 in
    for _ = 1 to 4 do
      match Option.bind (peek ()) hex_value with
      | Some d ->
        v := (!v * 16) + d;
        advance ()
      | None -> fail "invalid \\u escape"
    done;
    !v
  in
  (* After "\u": one code point, joining a surrogate pair when the low
     half follows. *)
  let code_point () =
    let hi = hex4 () in
    if hi < 0xd800 || hi > 0xdfff then hi
    else if
      hi < 0xdc00 && !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
    then begin
      let back = !pos in
      pos := !pos + 2;
      let lo = hex4 () in
      if lo >= 0xdc00 && lo <= 0xdfff then
        0x10000 + ((hi - 0xd800) lsl 10) + (lo - 0xdc00)
      else begin
        pos := back;
        0xfffd
      end
    end
    else 0xfffd
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
        advance ();
        Buffer.contents b
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some (('"' | '\\' | '/') as c) ->
           advance ();
           Buffer.add_char b c
         | Some (('b' | 'f' | 'n' | 'r' | 't') as c) ->
           advance ();
           Buffer.add_char b
             (match c with
              | 'b' -> '\b'
              | 'f' -> '\012'
              | 'n' -> '\n'
              | 'r' -> '\r'
              | _ -> '\t')
         | Some 'u' ->
           advance ();
           Buffer.add_utf_8_uchar b (Uchar.of_int (code_point ()))
         | _ -> fail "invalid escape");
        go ()
      | Some c when Char.code c < 0x20 -> fail "control character in string"
      | Some c ->
        advance ();
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  (* RFC 8259: -?(0|[1-9][0-9]* )(\.[0-9]+)?([eE][-+]?[0-9]+)?, the
     longest prefix that matches; an optional part that is incomplete
     is left for the caller to reject as trailing input. *)
  let number () =
    let start = !pos in
    let digits_at i =
      let j = ref i in
      while !j < n && is_digit s.[!j] do incr j done;
      !j
    in
    let i = if s.[start] = '-' then start + 1 else start in
    if i >= n || not (is_digit s.[i]) then fail "malformed number";
    let int_end = if s.[i] = '0' then i + 1 else digits_at i in
    let frac_end =
      if int_end + 1 < n && s.[int_end] = '.' && is_digit s.[int_end + 1]
      then digits_at (int_end + 1)
      else int_end
    in
    let exp_end =
      if frac_end < n && (s.[frac_end] = 'e' || s.[frac_end] = 'E') then
        let sign = frac_end + 1 < n && String.contains "+-" s.[frac_end + 1] in
        let d = if sign then frac_end + 2 else frac_end + 1 in
        if d < n && is_digit s.[d] then digits_at d else frac_end
      else frac_end
    in
    pos := exp_end;
    let text = String.sub s start (exp_end - start) in
    match int_of_string_opt text with
    | Some v when exp_end = int_end -> Int v
    | _ -> Float (float_of_string text)
  in
  (* [seq close what item]: the comma-separated items up to [close]. *)
  let seq close what item =
    advance ();
    skip_ws ();
    if peek () = Some close then begin
      advance ();
      []
    end
    else
      let rec more acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          more acc
        | Some c when c = close ->
          advance ();
          List.rev acc
        | _ -> fail (Printf.sprintf "expected , or %c in %s" close what)
      in
      more []
  in
  let rec member () =
    skip_ws ();
    let k = string () in
    skip_ws ();
    expect ':';
    (k, value ())
  and value () =
    skip_ws ();
    match peek () with
    | Some '"' -> String (string ())
    | Some '{' -> Object (seq '}' "object" member)
    | Some '[' -> List (seq ']' "array" value)
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
    | None -> fail "empty input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage after JSON value";
  v

let parse s =
  match parse_exn s with
  | v -> Ok v
  | exception Syntax (off, msg) ->
    let line = ref 1 and col = ref 1 in
    String.iteri
      (fun i c ->
         if i < off then
           if c = '\n' then begin
             incr line;
             col := 1
           end
           else incr col)
      s;
    Error (Printf.sprintf "%d:%d: %s" !line !col msg)

let number = function
  | Int i -> Some (float_of_int i)
  | Float x | Exact x -> Some x
  | Null | Bool _ | String _ | List _ | Object _ -> None

let rec equal a b =
  match (a, b) with
  | Int i, Int j -> i = j
  | List l, List m -> List.equal equal l m
  | Object l, Object m ->
    List.equal (fun (k, v) (k', v') -> String.equal k k' && equal v v') l m
  | _ -> (
    match (number a, number b) with
    | Some x, Some y -> x = y
    | _ -> a = b)
