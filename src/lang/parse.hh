/**
 * @file
 * Recursive-descent parser for the Revet language.
 *
 * Produces a name-resolved-later AST (slots = -1); see sema.hh for the
 * analysis that binds names, checks types, and inlines user functions.
 */

#ifndef REVET_LANG_PARSE_HH
#define REVET_LANG_PARSE_HH

#include <string>

#include "lang/ast.hh"
#include "lang/lex.hh"

namespace revet
{
namespace lang
{

/**
 * Deepest AST nesting parse() accepts. Each statement nested inside
 * another, each parenthesized, unary, ternary, call-argument or index
 * subexpression, and each operator of a left-deep binary chain
 * (`1+1+...+1`) counts one level. Sema, the passes, lowering and the
 * interpreter all recurse over the AST, so source nested deeper than
 * this is rejected with a positioned CompileError instead of being
 * allowed to overflow the stack anywhere downstream. The deepest
 * Table III app nests 11 levels; under ASan+UBSan, parse and sema alone
 * overflow an 8 MiB stack at ~750 nested `if`s, so 256 keeps a 3x
 * margin on the instrumented build.
 */
constexpr int kMaxNestingDepth = 256;

/** Parse Revet source text into an unanalyzed Program.
 * @throws CompileError on malformed or too deeply nested source. */
Program parse(const std::string &source);

/** Parse + run semantic analysis; the normal entry point. */
Program parseAndAnalyze(const std::string &source);

} // namespace lang
} // namespace revet

#endif // REVET_LANG_PARSE_HH
