#pragma once

/// \file parser.h
/// Recursive-descent parser for GSL.
///
/// Grammar (EBNF-ish):
///   script   := decl*
///   decl     := 'fn' IDENT '(' params? ')' block
///             | 'on' IDENT '(' params? ')' block
///             | stmt
///   stmt     := 'let' IDENT '=' expr
///             | 'if' expr block ('else' (block | if-stmt))?
///             | 'while' expr block
///             | 'foreach' IDENT 'in' expr block
///             | 'return' expr? | 'break' | 'continue'
///             | IDENT '=' expr            (assignment)
///             | expr                      (expression statement)
///   expr     := or; or := and ('or' and)*; and := eq ('and' eq)*
///   eq       := cmp (('=='|'!=') cmp)*
///   cmp      := add (('<'|'<='|'>'|'>=') add)*
///   add      := mul (('+'|'-') mul)*; mul := unary (('*'|'/'|'%') unary)*
///   unary    := ('-'|'not') unary | primary
///   primary  := NUMBER | STRING | 'true' | 'false' | 'nil'
///             | IDENT | IDENT '(' args? ')' | '(' expr ')' | '[' args? ']'

#include <string>

#include "common/status.h"
#include "script/ast.h"

namespace gamedb::script {

/// Deepest nesting Parse accepts: a node at depth `kMaxAstDepth` parses, one
/// level deeper is a ParseError. A top-level declaration or statement is at
/// depth 1; a block's statements and a statement's expressions sit one
/// level below it, and an operand, call argument or list item one level
/// below its operator, call or list. A parenthesised group counts as a
/// level too, and a chain of binary operators nests as its left-deep tree
/// does. So the bound holds for the AST depth that the verifier and the
/// interpreter recurse over, and for the parser's own recursion, on
/// hostile input.
inline constexpr int kMaxAstDepth = 256;

/// Parses `source` into a Script named `name`. Errors carry line numbers.
Result<Script> Parse(std::string_view source, std::string name = "<script>");

}  // namespace gamedb::script
