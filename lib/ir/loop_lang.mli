(** Textual front end for the loop-body language.

    Syntax (one statement per line; [--] starts a comment):

    {v
    loop <name>
      s    = x[i] * $r + prev(s, 1)   -- scalar definition (recurrence)
      y[i] = s + 2.5                  -- array store
    v}

    Lexical elements:
    - [x[i]] is a streaming array reference (load on the right-hand side
      of [=], store target on the left);
    - [$r] is a loop invariant;
    - a bare identifier refers to a scalar defined earlier in the body;
    - [prev(name, d)] reads the scalar [name] from [d] iterations ago;
    - [cvt(e)] is an int<->float conversion;
    - [select(p, a, b)] is an IF-converted conditional (value of [a]
      when [p] is non-negative, else [b]);
    - operators [+ - * /] with usual precedence and parentheses.

    A file may contain several [loop] blocks. *)

(** [file] is [None] when parsing from a string; {!parse_file} fills in
    the path so the message names its origin. *)
exception Parse_error of { file : string option; line : int; message : string }

(** Parse all loops in a string.

    @raise Parse_error on syntax errors.
    @raise Expr.Compile_error on semantic errors (e.g. unknown scalars). *)
val parse_string : string -> Ddg.t list

(** Like {!parse_string} on the file's contents; a [Parse_error] gains
    [file = Some path]. *)
val parse_file : string -> Ddg.t list
