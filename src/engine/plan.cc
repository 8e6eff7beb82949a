#include "engine/plan.h"

#include <algorithm>
#include <cctype>
#include <limits>
#include <set>

#include "common/logging.h"

namespace boss::engine
{

namespace
{

/** Token stream over an expression string. */
struct Lexer
{
    enum class Tok { Term, And, Or, LParen, RParen, End };

    std::string_view text;
    std::size_t pos = 0;
    std::string termName; ///< payload of the last Term token

    Tok
    next()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos]))) {
            ++pos;
        }
        if (pos >= text.size())
            return Tok::End;
        char c = text[pos];
        if (c == '(') {
            ++pos;
            return Tok::LParen;
        }
        if (c == ')') {
            ++pos;
            return Tok::RParen;
        }
        if (c == '"') {
            std::size_t close = text.find('"', pos + 1);
            if (close == std::string_view::npos)
                BOSS_FATAL("query expression: unterminated quote in '",
                           std::string(text), "'");
            termName = std::string(text.substr(pos + 1, close - pos - 1));
            pos = close + 1;
            return Tok::Term;
        }
        // Keyword: AND / OR (case-insensitive).
        std::size_t start = pos;
        while (pos < text.size() &&
               std::isalpha(static_cast<unsigned char>(text[pos]))) {
            ++pos;
        }
        std::string word(text.substr(start, pos - start));
        std::transform(word.begin(), word.end(), word.begin(),
                       [](unsigned char ch) { return std::toupper(ch); });
        if (word == "AND")
            return Tok::And;
        if (word == "OR")
            return Tok::Or;
        BOSS_FATAL("query expression: unexpected token '", word,
                   "' in '", std::string(text), "'");
    }
};

struct Parser
{
    Lexer lex;
    Lexer::Tok lookahead;
    const TermResolver &resolve;

    Parser(std::string_view text, const TermResolver &resolver)
        : lex{text, 0, {}}, resolve(resolver)
    {
        lookahead = lex.next();
    }

    void advance() { lookahead = lex.next(); }

    QueryExpr
    parseAtom()
    {
        if (lookahead == Lexer::Tok::Term) {
            QueryExpr e;
            e.kind = QueryExpr::Kind::Term;
            e.term = resolve(lex.termName);
            advance();
            return e;
        }
        if (lookahead == Lexer::Tok::LParen) {
            advance();
            QueryExpr e = parseOr();
            if (lookahead != Lexer::Tok::RParen)
                BOSS_FATAL("query expression: expected ')'");
            advance();
            return e;
        }
        BOSS_FATAL("query expression: expected term or '('");
    }

    QueryExpr
    parseAnd()
    {
        QueryExpr left = parseAtom();
        while (lookahead == Lexer::Tok::And) {
            advance();
            QueryExpr right = parseAtom();
            if (left.kind == QueryExpr::Kind::And) {
                left.children.push_back(std::move(right));
            } else {
                QueryExpr node;
                node.kind = QueryExpr::Kind::And;
                node.children.push_back(std::move(left));
                node.children.push_back(std::move(right));
                left = std::move(node);
            }
        }
        return left;
    }

    QueryExpr
    parseOr()
    {
        QueryExpr left = parseAnd();
        while (lookahead == Lexer::Tok::Or) {
            advance();
            QueryExpr right = parseAnd();
            if (left.kind == QueryExpr::Kind::Or) {
                left.children.push_back(std::move(right));
            } else {
                QueryExpr node;
                node.kind = QueryExpr::Kind::Or;
                node.children.push_back(std::move(left));
                node.children.push_back(std::move(right));
                left = std::move(node);
            }
        }
        return left;
    }
};

/** DNF of an expression: a list of AND-groups. */
std::vector<std::vector<TermId>>
toDnf(const QueryExpr &e)
{
    switch (e.kind) {
      case QueryExpr::Kind::Term:
        return {{e.term}};
      case QueryExpr::Kind::Or: {
        std::vector<std::vector<TermId>> out;
        for (const auto &child : e.children) {
            auto sub = toDnf(child);
            out.insert(out.end(), sub.begin(), sub.end());
        }
        return out;
      }
      case QueryExpr::Kind::And: {
        std::vector<std::vector<TermId>> acc = {{}};
        for (const auto &child : e.children) {
            auto sub = toDnf(child);
            std::vector<std::vector<TermId>> next;
            for (const auto &a : acc) {
                for (const auto &b : sub) {
                    std::vector<TermId> merged = a;
                    merged.insert(merged.end(), b.begin(), b.end());
                    next.push_back(std::move(merged));
                }
            }
            acc = std::move(next);
        }
        return acc;
      }
    }
    return {};
}

} // namespace

QueryExpr
parseExpression(std::string_view text, const TermResolver &resolve)
{
    Parser parser(text, resolve);
    QueryExpr e = parser.parseOr();
    if (parser.lookahead != Lexer::Tok::End)
        BOSS_FATAL("query expression: trailing tokens in '",
                   std::string(text), "'");
    return e;
}

TermId
defaultTermResolver(std::string_view name)
{
    if (name.size() < 2 || name[0] != 't')
        BOSS_FATAL("term name '", std::string(name),
                   "' is not of the form t<N>");
    // Accumulate wide, so an N past the TermId range is refused
    // instead of wrapping to another term.
    std::uint64_t t = 0;
    for (std::size_t i = 1; i < name.size(); ++i) {
        char c = name[i];
        if (c >= '0' && c <= '9')
            t = t * 10 + static_cast<std::uint64_t>(c - '0');
        if (c < '0' || c > '9' || t > std::numeric_limits<TermId>::max())
            BOSS_FATAL("term name '", std::string(name),
                       "' is not of the form t<N>");
    }
    return static_cast<TermId>(t);
}

QueryPlan
planQuery(const QueryExpr &expr)
{
    QueryPlan plan;
    plan.groups = toDnf(expr);
    // Dedup terms within each group and collect the full term set.
    std::set<TermId> all;
    for (auto &g : plan.groups) {
        std::sort(g.begin(), g.end());
        g.erase(std::unique(g.begin(), g.end()), g.end());
        all.insert(g.begin(), g.end());
    }
    plan.allTerms.assign(all.begin(), all.end());
    return plan;
}

QueryPlan
planQuery(const workload::Query &query)
{
    using workload::QueryType;
    QueryPlan plan;
    const auto &t = query.terms;
    switch (query.type) {
      case QueryType::Q1:
        plan.groups = {{t[0]}};
        break;
      case QueryType::Q2:
        plan.groups = {{t[0], t[1]}};
        break;
      case QueryType::Q3:
        plan.groups = {{t[0]}, {t[1]}};
        break;
      case QueryType::Q4:
        plan.groups = {{t[0], t[1], t[2], t[3]}};
        break;
      case QueryType::Q5:
        plan.groups = {{t[0]}, {t[1]}, {t[2]}, {t[3]}};
        break;
      case QueryType::Q6:
        // A AND (B OR C OR D) -> (A^B) v (A^C) v (A^D).
        plan.groups = {{t[0], t[1]}, {t[0], t[2]}, {t[0], t[3]}};
        break;
    }
    // Groups are canonically sorted sets (plan compilation relies on it).
    for (auto &g : plan.groups)
        std::sort(g.begin(), g.end());
    std::set<TermId> all(t.begin(), t.end());
    plan.allTerms.assign(all.begin(), all.end());
    return plan;
}

} // namespace boss::engine
