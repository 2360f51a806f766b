#include "lang/lex.hh"

#include <cctype>
#include <map>

namespace revet
{
namespace lang
{

std::string
tokName(Tok tok)
{
    switch (tok) {
      case Tok::eof: return "<eof>";
      case Tok::ident: return "identifier";
      case Tok::intLit: return "integer literal";
      case Tok::charLit: return "char literal";
      case Tok::strLit: return "string literal";
      case Tok::kwDram: return "DRAM";
      case Tok::kwSram: return "SRAM";
      case Tok::kwReadView: return "ReadView";
      case Tok::kwWriteView: return "WriteView";
      case Tok::kwModifyView: return "ModifyView";
      case Tok::kwReadIt: return "ReadIt";
      case Tok::kwPeekReadIt: return "PeekReadIt";
      case Tok::kwWriteIt: return "WriteIt";
      case Tok::kwManualWriteIt: return "ManualWriteIt";
      case Tok::kwVoid: return "void";
      case Tok::kwInt: return "int";
      case Tok::kwUint: return "uint";
      case Tok::kwChar: return "char";
      case Tok::kwUchar: return "uchar";
      case Tok::kwShort: return "short";
      case Tok::kwUshort: return "ushort";
      case Tok::kwBool: return "bool";
      case Tok::kwIf: return "if";
      case Tok::kwElse: return "else";
      case Tok::kwWhile: return "while";
      case Tok::kwForeach: return "foreach";
      case Tok::kwReplicate: return "replicate";
      case Tok::kwFork: return "fork";
      case Tok::kwExit: return "exit";
      case Tok::kwReturn: return "return";
      case Tok::kwPragma: return "pragma";
      case Tok::kwBy: return "by";
      case Tok::kwTrue: return "true";
      case Tok::kwFalse: return "false";
      case Tok::kwFlush: return "flush";
      case Tok::lparen: return "(";
      case Tok::rparen: return ")";
      case Tok::lbrace: return "{";
      case Tok::rbrace: return "}";
      case Tok::lbracket: return "[";
      case Tok::rbracket: return "]";
      case Tok::lt: return "<";
      case Tok::gt: return ">";
      case Tok::le: return "<=";
      case Tok::ge: return ">=";
      case Tok::eq: return "==";
      case Tok::ne: return "!=";
      case Tok::semi: return ";";
      case Tok::comma: return ",";
      case Tok::arrow: return "=>";
      case Tok::assign: return "=";
      case Tok::plus: return "+";
      case Tok::minus: return "-";
      case Tok::star: return "*";
      case Tok::slash: return "/";
      case Tok::percent: return "%";
      case Tok::amp: return "&";
      case Tok::pipe: return "|";
      case Tok::caret: return "^";
      case Tok::tilde: return "~";
      case Tok::bang: return "!";
      case Tok::shl: return "<<";
      case Tok::shr: return ">>";
      case Tok::andand: return "&&";
      case Tok::oror: return "||";
      case Tok::plusplus: return "++";
      case Tok::minusminus: return "--";
      case Tok::plusAssign: return "+=";
      case Tok::minusAssign: return "-=";
      case Tok::starAssign: return "*=";
      case Tok::ampAssign: return "&=";
      case Tok::pipeAssign: return "|=";
      case Tok::caretAssign: return "^=";
      case Tok::shlAssign: return "<<=";
      case Tok::shrAssign: return ">>=";
      case Tok::question: return "?";
      case Tok::colon: return ":";
    }
    return "<bad>";
}

namespace
{

const std::map<std::string, Tok> keywords = {
    {"DRAM", Tok::kwDram},
    {"SRAM", Tok::kwSram},
    {"ReadView", Tok::kwReadView},
    {"WriteView", Tok::kwWriteView},
    {"ModifyView", Tok::kwModifyView},
    {"ReadIt", Tok::kwReadIt},
    {"PeekReadIt", Tok::kwPeekReadIt},
    {"WriteIt", Tok::kwWriteIt},
    {"ManualWriteIt", Tok::kwManualWriteIt},
    {"void", Tok::kwVoid},
    {"int", Tok::kwInt},
    {"uint", Tok::kwUint},
    {"char", Tok::kwChar},
    {"uchar", Tok::kwUchar},
    {"short", Tok::kwShort},
    {"ushort", Tok::kwUshort},
    {"bool", Tok::kwBool},
    {"if", Tok::kwIf},
    {"else", Tok::kwElse},
    {"while", Tok::kwWhile},
    {"foreach", Tok::kwForeach},
    {"replicate", Tok::kwReplicate},
    {"fork", Tok::kwFork},
    {"exit", Tok::kwExit},
    {"return", Tok::kwReturn},
    {"pragma", Tok::kwPragma},
    {"by", Tok::kwBy},
    {"true", Tok::kwTrue},
    {"false", Tok::kwFalse},
    {"flush", Tok::kwFlush},
};

struct Cursor
{
    const std::string &src;
    size_t pos = 0;
    int line = 1;
    int col = 1;

    bool done() const { return pos >= src.size(); }
    char peek() const { return done() ? '\0' : src[pos]; }

    char
    peek2() const
    {
        return pos + 1 < src.size() ? src[pos + 1] : '\0';
    }

    /** Consume one character; at the end of input, '\0' and stay
     * there (the caller then reports its unterminated token). */
    char
    advance()
    {
        if (done())
            return '\0';
        char c = src[pos++];
        if (c == '\n') {
            ++line;
            col = 1;
        } else {
            ++col;
        }
        return c;
    }
};

int64_t
parseEscape(Cursor &cur)
{
    char c = cur.advance();
    if (c != '\\')
        return static_cast<unsigned char>(c);
    char esc = cur.advance();
    switch (esc) {
      case 'n': return '\n';
      case 't': return '\t';
      case 'r': return '\r';
      case '0': return 0;
      case '\\': return '\\';
      case '\'': return '\'';
      case '"': return '"';
      default:
        throw CompileError(std::string("bad escape '\\") + esc + "'",
                           cur.line, cur.col);
    }
}

} // namespace

std::vector<Lexeme>
lex(const std::string &source)
{
    Cursor cur{source};
    std::vector<Lexeme> out;

    auto emit = [&](Tok kind, std::string text = "", int64_t value = 0,
                    int line = 0, int col = 0) {
        Lexeme lx;
        lx.kind = kind;
        lx.text = std::move(text);
        lx.value = value;
        lx.line = line ? line : cur.line;
        lx.col = col ? col : cur.col;
        out.push_back(std::move(lx));
    };

    while (!cur.done()) {
        char c = cur.peek();
        int line = cur.line, col = cur.col;
        if (std::isspace(static_cast<unsigned char>(c))) {
            cur.advance();
            continue;
        }
        if (c == '/' && cur.peek2() == '/') {
            while (!cur.done() && cur.peek() != '\n')
                cur.advance();
            continue;
        }
        if (c == '/' && cur.peek2() == '*') {
            cur.advance();
            cur.advance();
            while (!cur.done() &&
                   !(cur.peek() == '*' && cur.peek2() == '/')) {
                cur.advance();
            }
            if (cur.done())
                throw CompileError("unterminated block comment", line, col);
            cur.advance();
            cur.advance();
            continue;
        }
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            std::string word;
            while (!cur.done() &&
                   (std::isalnum(static_cast<unsigned char>(cur.peek())) ||
                    cur.peek() == '_')) {
                word += cur.advance();
            }
            auto kw = keywords.find(word);
            if (kw != keywords.end())
                emit(kw->second, word, 0, line, col);
            else
                emit(Tok::ident, word, 0, line, col);
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            int64_t value = 0;
            if (c == '0' && (cur.peek2() == 'x' || cur.peek2() == 'X')) {
                cur.advance();
                cur.advance();
                bool any = false;
                while (!cur.done() && std::isxdigit(static_cast<unsigned char>(
                                          cur.peek()))) {
                    value = value * 16 +
                        (std::isdigit(static_cast<unsigned char>(
                             cur.peek()))
                             ? cur.peek() - '0'
                             : (std::tolower(cur.peek()) - 'a' + 10));
                    cur.advance();
                    any = true;
                }
                if (!any)
                    throw CompileError("bad hex literal", line, col);
            } else {
                while (!cur.done() && std::isdigit(static_cast<unsigned char>(
                                          cur.peek()))) {
                    value = value * 10 + (cur.advance() - '0');
                }
            }
            emit(Tok::intLit, "", value, line, col);
            continue;
        }
        if (c == '\'') {
            cur.advance();
            int64_t value = parseEscape(cur);
            if (cur.advance() != '\'')
                throw CompileError("unterminated char literal", line, col);
            emit(Tok::charLit, "", value, line, col);
            continue;
        }
        if (c == '"') {
            cur.advance();
            std::string text;
            while (!cur.done() && cur.peek() != '"')
                text += static_cast<char>(parseEscape(cur));
            if (cur.done())
                throw CompileError("unterminated string literal", line, col);
            cur.advance();
            emit(Tok::strLit, text, 0, line, col);
            continue;
        }

        cur.advance();
        char n = cur.peek();
        auto two = [&](char second, Tok twoTok, Tok oneTok) {
            if (n == second) {
                cur.advance();
                emit(twoTok, "", 0, line, col);
            } else {
                emit(oneTok, "", 0, line, col);
            }
        };
        switch (c) {
          case '(': emit(Tok::lparen, "", 0, line, col); break;
          case ')': emit(Tok::rparen, "", 0, line, col); break;
          case '{': emit(Tok::lbrace, "", 0, line, col); break;
          case '}': emit(Tok::rbrace, "", 0, line, col); break;
          case '[': emit(Tok::lbracket, "", 0, line, col); break;
          case ']': emit(Tok::rbracket, "", 0, line, col); break;
          case ';': emit(Tok::semi, "", 0, line, col); break;
          case ',': emit(Tok::comma, "", 0, line, col); break;
          case '~': emit(Tok::tilde, "", 0, line, col); break;
          case '?': emit(Tok::question, "", 0, line, col); break;
          case ':': emit(Tok::colon, "", 0, line, col); break;
          case '+':
            if (n == '+') {
                cur.advance();
                emit(Tok::plusplus, "", 0, line, col);
            } else {
                two('=', Tok::plusAssign, Tok::plus);
            }
            break;
          case '-':
            if (n == '-') {
                cur.advance();
                emit(Tok::minusminus, "", 0, line, col);
            } else {
                two('=', Tok::minusAssign, Tok::minus);
            }
            break;
          case '*': two('=', Tok::starAssign, Tok::star); break;
          case '/': emit(Tok::slash, "", 0, line, col); break;
          case '%': emit(Tok::percent, "", 0, line, col); break;
          case '^': two('=', Tok::caretAssign, Tok::caret); break;
          case '!': two('=', Tok::ne, Tok::bang); break;
          case '&':
            if (n == '&') {
                cur.advance();
                emit(Tok::andand, "", 0, line, col);
            } else {
                two('=', Tok::ampAssign, Tok::amp);
            }
            break;
          case '|':
            if (n == '|') {
                cur.advance();
                emit(Tok::oror, "", 0, line, col);
            } else {
                two('=', Tok::pipeAssign, Tok::pipe);
            }
            break;
          case '=':
            if (n == '=') {
                cur.advance();
                emit(Tok::eq, "", 0, line, col);
            } else if (n == '>') {
                cur.advance();
                emit(Tok::arrow, "", 0, line, col);
            } else {
                emit(Tok::assign, "", 0, line, col);
            }
            break;
          case '<':
            if (n == '<') {
                cur.advance();
                if (cur.peek() == '=') {
                    cur.advance();
                    emit(Tok::shlAssign, "", 0, line, col);
                } else {
                    emit(Tok::shl, "", 0, line, col);
                }
            } else {
                two('=', Tok::le, Tok::lt);
            }
            break;
          case '>':
            if (n == '>') {
                cur.advance();
                if (cur.peek() == '=') {
                    cur.advance();
                    emit(Tok::shrAssign, "", 0, line, col);
                } else {
                    emit(Tok::shr, "", 0, line, col);
                }
            } else {
                two('=', Tok::ge, Tok::gt);
            }
            break;
          default:
            throw CompileError(std::string("unexpected character '") + c +
                                   "'",
                               line, col);
        }
    }
    emit(Tok::eof);
    return out;
}

} // namespace lang
} // namespace revet
