#include "symbol_index.h"

#include <algorithm>
#include <string_view>

namespace cottage::lint {

namespace {

const std::set<std::string> kKeywords = {
    "alignas",   "alignof",  "auto",     "bool",     "break",
    "case",      "catch",    "char",     "class",    "co_await",
    "co_return", "co_yield", "const",    "consteval","constexpr",
    "constinit", "continue", "decltype", "default",  "delete",
    "do",        "double",   "else",     "enum",     "explicit",
    "extern",    "false",    "final",    "float",    "for",
    "friend",    "goto",     "if",       "inline",   "int",
    "long",      "mutable",  "namespace","new",      "noexcept",
    "nullptr",   "operator", "override", "private",  "protected",
    "public",    "register", "requires", "return",   "short",
    "signed",    "sizeof",   "static",   "static_assert",
    "static_cast","struct",  "switch",   "template", "this",
    "thread_local","throw",  "true",     "try",      "typedef",
    "typeid",    "typename", "union",    "unsigned", "using",
    "virtual",   "void",     "volatile", "while",
};

/**
 * Keywords that may precede an identifier in an *expression* (so an
 * identifier after one is not a declarator). Everything else —
 * including the built-in type keywords — reads as the tail of a
 * declaration's type.
 */
const std::set<std::string> kExprKeywords = {
    "return", "case",   "goto",     "throw",    "else",
    "do",     "if",     "while",    "for",      "switch",
    "new",    "delete", "co_return","co_yield", "co_await",
    "sizeof", "typeid", "operator", "break",    "continue",
    "try",    "catch",  "default",  "true",     "false",
    "nullptr","this",   "typename",
};

/** src subtrees whose class members are "measured state" (D7). */
bool
isMeasuredPath(const std::string &path)
{
    return path.find("src/sim/") != std::string::npos ||
           path.find("src/engine/") != std::string::npos ||
           path.find("src/index/") != std::string::npos;
}

/** Project annotation / check macros (skipped with their parens). */
bool
isProjectMacro(const std::string &t)
{
    return t.rfind("COTTAGE_", 0) == 0;
}

/** Skip a balanced `<...>` starting at @p open (pointing at '<'). */
std::size_t
skipAngles(const std::vector<Token> &toks, std::size_t open,
           std::size_t end)
{
    int depth = 0;
    for (std::size_t j = open; j < end; ++j) {
        const std::string &t = toks[j].text;
        if (t == "<")
            ++depth;
        else if (t == ">")
            --depth;
        else if (t == ">>")
            depth -= 2;
        else if (t == "(" || t == "[" || t == "{")
            j = matchGroup(toks, j, end);
        if (depth <= 0 && j >= open)
            return j + 1;
    }
    return end;
}

/** Skip an enum definition/declaration through its ';'. */
std::size_t
skipEnum(const std::vector<Token> &toks, std::size_t i, std::size_t end)
{
    for (std::size_t j = i; j < end; ++j) {
        if (toks[j].text == "{")
            j = matchGroup(toks, j, end);
        else if (toks[j].text == ";")
            return j + 1;
    }
    return end;
}

} // namespace

bool
isAssignOp(const std::string &t)
{
    return t == "=" || t == "+=" || t == "-=" || t == "*=" ||
           t == "/=" || t == "%=" || t == "&=" || t == "|=" ||
           t == "^=" || t == "<<=" || t == ">>=";
}

bool
isCppKeyword(const std::string &t)
{
    return kKeywords.count(t) != 0;
}

bool
isDeclPrevToken(const Token &t)
{
    return t.kind == TokenKind::Identifier && !kExprKeywords.count(t.text);
}

std::size_t
matchGroup(const std::vector<Token> &toks, std::size_t open,
           std::size_t end)
{
    int depth = 0;
    for (std::size_t j = open; j < end; ++j) {
        const std::string &t = toks[j].text;
        if (t == "(" || t == "[" || t == "{")
            ++depth;
        else if (t == ")" || t == "]" || t == "}") {
            --depth;
            if (depth == 0)
                return j;
        }
    }
    return end;
}

std::vector<WriteSite>
scanWrites(const std::vector<Token> &toks, std::size_t begin,
           std::size_t end)
{
    std::vector<WriteSite> out;

    auto accessOf = [&](std::size_t i, WriteSite &w) {
        const std::string prev = i > begin ? toks[i - 1].text : "";
        if (prev == ".")
            w.access = WriteAccess::Dot;
        else if (prev == "->")
            w.access = WriteAccess::Ptr;
        else
            w.access = WriteAccess::Bare;
        if (w.access != WriteAccess::Bare && i >= begin + 2 &&
            toks[i - 2].kind == TokenKind::Identifier)
            w.base = toks[i - 2].text;
    };

    auto declAt = [&](std::size_t i) {
        if (i <= begin)
            return false;
        const Token &p = toks[i - 1];
        if (p.kind == TokenKind::Identifier)
            return isDeclPrevToken(p);
        if (p.text == ">")
            return true;
        if ((p.text == "*" || p.text == "&" || p.text == "&&") &&
            i >= begin + 2 && isDeclPrevToken(toks[i - 2]))
            return true;
        return false;
    };

    for (std::size_t i = begin; i < end; ++i) {
        const Token &t = toks[i];

        // Prefix ++/--: target is the (possibly accessed) identifier
        // that follows.
        if ((t.text == "++" || t.text == "--") && i + 1 < end &&
            toks[i + 1].kind == TokenKind::Identifier &&
            !isCppKeyword(toks[i + 1].text))
        {
            std::size_t target = i + 1;
            WriteSite w;
            if (target + 2 < end && (toks[target + 1].text == "." ||
                                     toks[target + 1].text == "->") &&
                toks[target + 2].kind == TokenKind::Identifier)
            {
                w.base = toks[target].text;
                w.access = toks[target + 1].text == "."
                               ? WriteAccess::Dot
                               : WriteAccess::Ptr;
                target += 2;
            }
            w.name = toks[target].text;
            w.line = toks[target].line;
            std::size_t k = target + 1;
            while (k < end && toks[k].text == "[") {
                w.indexed = true;
                k = matchGroup(toks, k, end) + 1;
            }
            out.push_back(std::move(w));
            continue;
        }

        if (t.kind != TokenKind::Identifier || isCppKeyword(t.text))
            continue;

        // Identifier, optional [...] groups, then an assignment
        // operator or postfix ++/--.
        std::size_t k = i + 1;
        bool indexed = false;
        while (k < end && toks[k].text == "[") {
            indexed = true;
            k = matchGroup(toks, k, end) + 1;
        }
        if (k >= end)
            continue;
        const std::string &op = toks[k].text;
        if (!isAssignOp(op) && op != "++" && op != "--")
            continue;
        // `x == y` never reaches here ("==" is one token), but an
        // assignment inside a condition does — that is still a write.
        WriteSite w;
        w.name = t.text;
        w.line = t.line;
        w.indexed = indexed;
        accessOf(i, w);
        w.declaration = w.access == WriteAccess::Bare && !indexed &&
                        op == "=" && declAt(i);
        out.push_back(std::move(w));
    }
    return out;
}

namespace {

/**
 * Per-file harvesting pass: walks the token stream with a small
 * recursive-descent structure (classes recurse, function bodies are
 * consumed wholesale) and appends what it finds to the index's
 * containers. Name-keyed only; see the file comment in the header.
 */
class FileScanner
{
  public:
    FileScanner(const std::string &path, const LexedFile &lexed,
                std::map<std::string, ClassInfo> &classes,
                std::vector<FunctionInfo> &functions,
                std::set<std::string> &guardedMembers,
                std::set<std::string> &hookPointers)
        : path_(path), toks_(lexed.tokens), classes_(classes),
          functions_(functions), guardedMembers_(guardedMembers),
          hookPointers_(hookPointers)
    {
    }

    void
    run()
    {
        scanAnnotationsAndHooks();
        const std::size_t n = toks_.size();
        std::size_t i = 0;
        while (i < n)
            i = step(i, n, "");
    }

  private:
    /** Whole-stream pass for GUARDED_BY members and hook pointers. */
    void
    scanAnnotationsAndHooks()
    {
        for (std::size_t i = 0; i < toks_.size(); ++i) {
            const Token &t = toks_[i];
            if (t.kind != TokenKind::Identifier)
                continue;
            if (t.text == "COTTAGE_GUARDED_BY" && i > 0 &&
                toks_[i - 1].kind == TokenKind::Identifier)
                guardedMembers_.insert(toks_[i - 1].text);
            if ((t.text == "QueryTracer" || t.text == "MetricsRegistry") &&
                i + 2 < toks_.size() && toks_[i + 1].text == "*" &&
                toks_[i + 2].kind == TokenKind::Identifier &&
                !isCppKeyword(toks_[i + 2].text))
                hookPointers_.insert(toks_[i + 2].text);
        }
    }

    /** Process one construct starting at @p i; returns the next index. */
    std::size_t
    step(std::size_t i, std::size_t end, const std::string &classCtx)
    {
        const Token &t = toks_[i];
        if (t.kind == TokenKind::Identifier) {
            if (t.text == "template" && i + 1 < end &&
                toks_[i + 1].text == "<")
                return skipAngles(toks_, i + 1, end);
            if (t.text == "class" || t.text == "struct")
                return parseClass(i, end, classCtx);
            if (t.text == "enum")
                return skipEnum(toks_, i, end);
            if (t.text == "namespace") {
                // Namespaces are transparent: enter the braces and
                // keep walking (the stray '}' is skipped later).
                std::size_t j = i + 1;
                while (j < end && toks_[j].text != "{" &&
                       toks_[j].text != ";" && toks_[j].text != "=")
                    ++j;
                return j < end && toks_[j].text == "{" ? j + 1 : j + 1;
            }
            if (!isCppKeyword(t.text) && i + 1 < end &&
                toks_[i + 1].text == "(")
            {
                const std::size_t after = tryParseFunction(i, end, classCtx);
                if (after != kFail)
                    return after;
            }
            return i + 1;
        }
        if (t.text == "{")
            return matchGroup(toks_, i, end) + 1;
        return i + 1;
    }

    /**
     * Parse `class|struct [macros] Name ... ;` (declaration) or
     * `... { body }` (definition, recursing into the body).
     * Returns the index past the construct.
     */
    std::size_t
    parseClass(std::size_t i, std::size_t end, const std::string &outer)
    {
        std::size_t j = i + 1;
        std::string name;
        while (j < end) {
            const Token &t = toks_[j];
            if (t.kind != TokenKind::Identifier)
                break;
            if ((isProjectMacro(t.text) || t.text == "alignas") &&
                j + 1 < end && toks_[j + 1].text == "(")
            {
                j = matchGroup(toks_, j + 1, end) + 1;
                continue;
            }
            name = t.text;
            ++j;
            break;
        }
        if (name.empty())
            return i + 1; // anonymous / unstructured; let the walker cope

        const std::string qual =
            outer.empty() ? name : outer + "::" + name;

        int angle = 0;
        std::size_t k = j;
        while (k < end) {
            const std::string &t = toks_[k].text;
            if (t == "<")
                ++angle;
            else if (t == ">")
                angle = std::max(0, angle - 1);
            else if (t == ">>")
                angle = std::max(0, angle - 2);
            else if (t == "(") {
                k = matchGroup(toks_, k, end) + 1;
                continue;
            } else if (t == "{" && angle == 0) {
                ClassInfo &ci = classes_[qual];
                if (!ci.defined) {
                    ci.defined = true;
                    ci.file = path_;
                }
                const std::size_t close = matchGroup(toks_, k, end);
                parseClassBody(qual, k + 1, close);
                return close + 1;
            } else if (t == ";") {
                // Forward declaration (or an elaborated-type decl).
                ClassInfo &ci = classes_[qual];
                if (ci.file.empty())
                    ci.file = path_;
                return k + 1;
            }
            ++k;
        }
        return end;
    }

    /** Walk a class body: nested types, methods, member decls. */
    void
    parseClassBody(const std::string &qual, std::size_t begin,
                   std::size_t end)
    {
        std::size_t declStart = begin;
        int angle = 0;
        std::size_t j = begin;
        while (j < end) {
            const Token &t = toks_[j];
            if (t.kind == TokenKind::Identifier) {
                const std::string &s = t.text;
                if (s == "template" && j + 1 < end &&
                    toks_[j + 1].text == "<")
                {
                    j = skipAngles(toks_, j + 1, end);
                    continue;
                }
                if ((s == "public" || s == "private" ||
                     s == "protected") &&
                    j + 1 < end && toks_[j + 1].text == ":")
                {
                    j += 2;
                    declStart = j;
                    continue;
                }
                if (s == "class" || s == "struct") {
                    j = parseClass(j, end, qual);
                    declStart = j;
                    continue;
                }
                if (s == "enum") {
                    j = skipEnum(toks_, j, end);
                    declStart = j;
                    continue;
                }
                if (s == "using" || s == "typedef" || s == "friend" ||
                    s == "static_assert")
                {
                    while (j < end && toks_[j].text != ";")
                        ++j;
                    ++j;
                    declStart = j;
                    continue;
                }
                if (angle == 0 && !isCppKeyword(s) && j + 1 < end &&
                    toks_[j + 1].text == "(" && !isProjectMacro(s))
                {
                    const std::size_t after =
                        tryParseFunction(j, end, qual);
                    if (after != kFail) {
                        j = after;
                        declStart = j;
                        continue;
                    }
                }
                ++j;
                continue;
            }
            const std::string &s = t.text;
            if (s == "<")
                ++angle;
            else if (s == ">")
                angle = std::max(0, angle - 1);
            else if (s == ">>")
                angle = std::max(0, angle - 2);
            else if (s == "{") {
                // Brace initializer in a member decl; the decl still
                // ends at its ';'.
                j = matchGroup(toks_, j, end) + 1;
                continue;
            } else if (s == ";") {
                processMemberDecl(qual, declStart, j);
                ++j;
                declStart = j;
                angle = 0;
                continue;
            }
            ++j;
        }
    }

    /** Extract the member name from one `type name [init];` span. */
    void
    processMemberDecl(const std::string &qual, std::size_t begin,
                      std::size_t end)
    {
        if (begin >= end)
            return;
        int angle = 0;
        std::size_t stop = end;
        for (std::size_t k = begin; k < end; ++k) {
            const std::string &t = toks_[k].text;
            if (t == "<")
                ++angle;
            else if (t == ">")
                angle = std::max(0, angle - 1);
            else if (t == ">>")
                angle = std::max(0, angle - 2);
            else if (angle == 0 &&
                     (t == "=" || t == "{" ||
                      (toks_[k].kind == TokenKind::Identifier &&
                       isProjectMacro(t) && k + 1 < end &&
                       toks_[k + 1].text == "(")))
            {
                stop = k;
                break;
            } else if (angle == 0 && t == "(") {
                // Unparsed function-ish declaration; not a member.
                return;
            }
        }
        // The declarator name is the identifier right before the stop
        // (or the last identifier of the span for plain `type name;`).
        for (std::size_t k = stop; k-- > begin;) {
            const Token &t = toks_[k];
            if (t.kind == TokenKind::Identifier) {
                if (isCppKeyword(t.text))
                    return;
                classes_[qual].members.insert(t.text);
                return;
            }
            if (t.text != "]" && t.text != ")" &&
                t.kind != TokenKind::Number)
            {
                if (stop == end)
                    continue; // bitfield ': 3' tail etc.
                return;
            }
        }
    }

    /**
     * Try to parse a function/method whose name identifier is at
     * @p i (with '(' at i+1). Returns the index past the declaration
     * or definition, or kFail when the shape is not a function.
     */
    std::size_t
    tryParseFunction(std::size_t i, std::size_t end,
                     const std::string &classCtx)
    {
        // Walk the qualified-name chain backwards: A::B::name.
        std::size_t first = i;
        while (first >= 2 && toks_[first - 1].text == "::" &&
               toks_[first - 2].kind == TokenKind::Identifier)
            first -= 2;
        if (first > 0) {
            const std::string &p = toks_[first - 1].text;
            // A call expression, not a declarator.
            if (p == "." || p == "->" || p == "=" || p == "(" ||
                p == "," || p == "return" || p == "!" || p == "&&" ||
                p == "||" || p == "?" || p == ":" || p == "+" ||
                p == "-" || p == "<" || isAssignOp(p))
                return kFail;
        }

        const std::size_t paren = i + 1;
        const std::size_t close = matchGroup(toks_, paren, end);
        if (close >= end)
            return kFail;

        // Scan the qualifier tail for '{' (definition), ';'/'='
        // (declaration), or anything else (not a function).
        std::size_t j = close + 1;
        std::size_t bodyOpen = 0;
        bool declOnly = false;
        while (j < end) {
            const std::string &t = toks_[j].text;
            if (t == "const" || t == "noexcept" || t == "override" ||
                t == "final" || t == "mutable" || t == "throw" ||
                t == "&" || t == "&&")
            {
                if (j + 1 < end && toks_[j + 1].text == "(") {
                    j = matchGroup(toks_, j + 1, end) + 1;
                    continue;
                }
                ++j;
                continue;
            }
            if (toks_[j].kind == TokenKind::Identifier &&
                isProjectMacro(t) && j + 1 < end &&
                toks_[j + 1].text == "(")
            {
                j = matchGroup(toks_, j + 1, end) + 1;
                continue;
            }
            if (t == "->") {
                // Trailing return type: scan to '{' or ';'.
                ++j;
                while (j < end && toks_[j].text != "{" &&
                       toks_[j].text != ";")
                {
                    if (toks_[j].text == "(")
                        j = matchGroup(toks_, j, end);
                    ++j;
                }
                continue;
            }
            if (t == ":") {
                // Constructor initializer list: entries are
                // `name(...)` or `name{...}`; the body '{' follows a
                // ')' or '}'.
                ++j;
                // A view: assigning literals to a std::string here trips
                // GCC 12's -Wrestrict false positive. Token text
                // outlives the loop.
                std::string_view prev;
                while (j < end) {
                    const std::string &u = toks_[j].text;
                    if (u == "(") {
                        j = matchGroup(toks_, j, end) + 1;
                        prev = ")";
                        continue;
                    }
                    if (u == "{") {
                        if (prev == ")" || prev == "}" || prev == "...")
                            break; // function body
                        j = matchGroup(toks_, j, end) + 1;
                        prev = "}";
                        continue;
                    }
                    if (u == ";")
                        break; // malformed; bail below
                    prev = u;
                    ++j;
                }
                continue;
            }
            if (t == "{") {
                bodyOpen = j;
                break;
            }
            if (t == ";") {
                declOnly = true;
                break;
            }
            if (t == "=") {
                // = default / = delete / = 0.
                while (j < end && toks_[j].text != ";")
                    ++j;
                declOnly = true;
                break;
            }
            return kFail;
        }
        if (bodyOpen == 0 && !declOnly)
            return kFail;

        FunctionInfo fn;
        fn.bare = toks_[i].text;
        fn.file = path_;
        fn.line = toks_[i].line;
        std::string qualName;
        for (std::size_t k = first; k <= i; ++k) {
            qualName += toks_[k].text;
        }
        fn.name = qualName;
        if (first < i) {
            // Out-of-line: the qualifier right before the bare name
            // is the owner (a class if one is indexed by that name).
            fn.klass = toks_[i - 2].text;
        } else if (!classCtx.empty()) {
            fn.klass = classCtx;
            fn.name = classCtx + "::" + fn.bare;
        }

        if (bodyOpen != 0) {
            const std::size_t bodyClose =
                matchGroup(toks_, bodyOpen, end);
            fn.bodyBegin = bodyOpen + 1;
            fn.bodyEnd = bodyClose;
            harvestBody(fn, paren, close);
            functions_.push_back(std::move(fn));
            return bodyClose + 1;
        }
        functions_.push_back(std::move(fn));
        ++j; // past the ';'
        return j;
    }

    /** Collect params, locals, callees and writes for a definition. */
    void
    harvestBody(FunctionInfo &fn, std::size_t paramOpen,
                std::size_t paramClose)
    {
        // Parameters: identifiers directly followed by ',' ')' '=' '['.
        for (std::size_t k = paramOpen + 1; k < paramClose; ++k) {
            const Token &t = toks_[k];
            if (t.kind != TokenKind::Identifier || isCppKeyword(t.text))
                continue;
            const std::string &nxt = toks_[k + 1].text;
            if (nxt == "," || nxt == ")" || nxt == "=" || nxt == "[")
                fn.locals.insert(t.text);
        }

        for (std::size_t k = fn.bodyBegin; k < fn.bodyEnd; ++k) {
            const Token &t = toks_[k];
            if (t.kind != TokenKind::Identifier || isCppKeyword(t.text))
                continue;
            const std::string prev = k > 0 ? toks_[k - 1].text : "";
            const std::string &nxt = toks_[k + 1].text;

            // Callee: name '(' that is not a declaration header.
            if (nxt == "(" && prev != "." && !isProjectMacro(t.text)) {
                // `Type name(...)` is a decl, handled below via the
                // local heuristic; a bare or qualified or member call
                // is a callee either way (over-approximation is fine:
                // unknown names resolve to nothing).
                fn.callees.insert(t.text);
            }

            // Local declaration heuristic: `Type name` / `Type &name`
            // where the declarator is followed by a terminator.
            if (prev != "" &&
                (isDeclPrevToken(toks_[k - 1]) || prev == ">" ||
                 prev == "*" || prev == "&" || prev == "&&") &&
                (nxt == "=" || nxt == ";" || nxt == "{" || nxt == "(" ||
                 nxt == ":" || nxt == "," || nxt == "["))
            {
                if (prev == "*" || prev == "&" || prev == "&&") {
                    if (k >= 2 && isDeclPrevToken(toks_[k - 2]))
                        fn.locals.insert(t.text);
                } else {
                    fn.locals.insert(t.text);
                }
            }
        }

        fn.writes = scanWrites(toks_, fn.bodyBegin, fn.bodyEnd);
    }

    static constexpr std::size_t kFail =
        static_cast<std::size_t>(-1);

    const std::string &path_;
    const std::vector<Token> &toks_;
    std::map<std::string, ClassInfo> &classes_;
    std::vector<FunctionInfo> &functions_;
    std::set<std::string> &guardedMembers_;
    std::set<std::string> &hookPointers_;
};

} // namespace

void
SymbolIndex::addFile(const std::string &path, const LexedFile &lexed)
{
    FileScanner scanner(path, lexed, classes_, functions_,
                        guardedMembers_, hookPointers_);
    scanner.run();
}

void
SymbolIndex::finalize()
{
    byBare_.clear();
    for (std::size_t f = 0; f < functions_.size(); ++f)
        byBare_[functions_[f].bare].push_back(f);

    measuredMembers_.clear();
    allMembers_.clear();
    for (const auto &[name, info] : classes_) {
        allMembers_.insert(info.members.begin(), info.members.end());
        if (info.defined && isMeasuredPath(info.file))
            measuredMembers_.insert(info.members.begin(),
                                    info.members.end());
    }
    // The nullable hook pointers themselves are observability wiring,
    // not measured state: installing a tracer/metrics sink (setTracer,
    // setMetrics) changes no measured bytes — that identity is what
    // test_obs pins dynamically.
    for (const std::string &hook : hookPointers_)
        measuredMembers_.erase(hook);

    // Direct writes: a non-declaration write to a measured member
    // name, reached bare (an unqualified member of *this) or through
    // a pointer (state held by reference from elsewhere). `.` access
    // is deliberately excluded — that is how locals and value copies
    // are touched (docs/static_analysis.md, under-approximations).
    for (FunctionInfo &fn : functions_) {
        if (!fn.defined())
            continue;
        for (const WriteSite &w : fn.writes) {
            if (w.declaration || !measuredMembers_.count(w.name))
                continue;
            if (w.access == WriteAccess::Dot)
                continue;
            if (w.access == WriteAccess::Bare && fn.locals.count(w.name))
                continue;
            fn.writesMeasured = true;
            fn.measuredWhy = "writes measured member '" + w.name +
                             "' (" + fn.file + ":" +
                             std::to_string(w.line) + ")";
            break;
        }
    }

    // Fixed point over the name-keyed call graph: a caller inherits
    // writesMeasured from any callee whose bare name resolves
    // unambiguously to measured-writing definitions.
    bool changed = true;
    while (changed) {
        changed = false;
        for (FunctionInfo &fn : functions_) {
            if (!fn.defined() || fn.writesMeasured)
                continue;
            for (const std::string &callee : fn.callees) {
                if (fn.locals.count(callee))
                    continue; // local lambda / functor
                std::string why;
                if (calleeWritesMeasured(callee, &why)) {
                    fn.writesMeasured = true;
                    fn.measuredWhy =
                        "calls '" + callee + "', which " + why;
                    changed = true;
                    break;
                }
            }
        }
    }
}

bool
SymbolIndex::calleeWritesMeasured(const std::string &bare,
                                  std::string *why) const
{
    const auto it = byBare_.find(bare);
    if (it == byBare_.end())
        return false;
    bool anyDefined = false;
    const FunctionInfo *evidence = nullptr;
    for (std::size_t idx : it->second) {
        const FunctionInfo &cand = functions_[idx];
        if (!cand.defined())
            continue;
        anyDefined = true;
        if (!cand.writesMeasured)
            return false; // ambiguous: at least one clean candidate
        evidence = &cand;
    }
    if (!anyDefined || evidence == nullptr)
        return false;
    if (why != nullptr)
        *why = evidence->measuredWhy;
    return true;
}

} // namespace cottage::lint
