/**
 * @file
 * The one two-way text codec behind the result-cache snapshot and
 * the worker and journal payloads of the crash tools and the fuzzer.
 *
 * A format is written once, as a function template over an `Io` --
 * a record's visitFields(rec, io), or the snapshot layout in
 * result_cache.cc -- that calls
 *
 *  - io.line(key, fields...): one line, the key and then each field;
 *  - io.keyed(prefix, rec): one "<prefix><name> <value>" line per
 *    entry of the record's visitFields(rec, v) list;
 *  - io.seq(key, vec, each, max): a "key <count>" line, then every
 *    element through each(elem); a count above max is malformed;
 *  - io.check(cond): a condition every well-formed record meets.
 *
 * Driven by a WireWriter the template prints the text; driven by a
 * WireReader it parses that text back into the record and checks it,
 * so the two directions cannot drift apart.  Reading is token based
 * (any run of whitespace separates two tokens).  Any slip -- a wrong
 * key, a missing or malformed token, a failed check -- poisons the
 * reader: every later step does nothing and ok() is false.  The
 * writer treats a failed check as a program bug.
 *
 * A field is
 *  - an integer, in decimal;
 *  - a record with a visitFields(rec, v) list (common/types.hh
 *    FieldsOf): its entries in turn, the names unused;
 *  - a Histogram or Distribution: its geometry, bucket counts and
 *    trailer, the geometry checked on read against the destination's;
 *  - one of the wire:: encodings below;
 *  - a std::array of any of these.
 * An integer or string passed as a const value or a temporary is an
 * *expected* value: the writer prints it and the reader requires the
 * token to equal it.  Magic strings, schema versions and the
 * fingerprint / app / config identity lines are checked that way.
 */

#ifndef EDE_EXP_WIRE_HH
#define EDE_EXP_WIRE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "exp/journal.hh"
#include "sim/config.hh"

namespace ede {
namespace exp {

/** Field encodings other than a plain decimal integer. */
namespace wire {

/**
 * An enum by its underlying value, which must lie in [0, max]; a bool
 * is the enum {0, 1}.
 */
template <class E>
struct Enumeration
{
    E &v;
    std::remove_const_t<E> max;

    void put(std::ostream &os) const { os << static_cast<long long>(v); }

    bool
    get(std::istream &is) const
    {
        long long x = 0;
        if (!(is >> x) || x < 0 || x > static_cast<long long>(max))
            return false;
        v = static_cast<E>(x);
        return true;
    }
};

/** A Config by its name; an unknown name is malformed. */
template <class C>
struct ConfigName
{
    C &v;

    void put(std::ostream &os) const { os << configName(v); }

    bool
    get(std::istream &is) const
    {
        std::string name;
        if (!(is >> name))
            return false;
        const std::optional<Config> c = configFromName(name);
        if (!c)
            return false;
        v = *c;
        return true;
    }
};

/** A double by its bit pattern, so it round-trips exactly. */
template <class D>
struct Bits
{
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    D &v;

    void
    put(std::ostream &os) const
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        os << bits;
    }

    bool
    get(std::istream &is) const
    {
        std::uint64_t bits = 0;
        if (!(is >> bits))
            return false;
        std::memcpy(&v, &bits, sizeof(bits));
        return true;
    }
};

/** A string without whitespace; "-" stands for the empty string. */
template <class S>
struct Word
{
    S &v;

    void put(std::ostream &os) const { os << (v.empty() ? "-" : v); }

    bool
    get(std::istream &is) const
    {
        std::string tok;
        if (!(is >> tok))
            return false;
        v = tok == "-" ? std::string() : tok;
        return true;
    }
};

/** Any string, percent-escaped into one token (journalEscape). */
template <class S>
struct Text
{
    S &v;

    void put(std::ostream &os) const { os << journalEscape(v); }

    bool
    get(std::istream &is) const
    {
        std::string tok;
        if (!(is >> tok))
            return false;
        v = journalUnescape(tok);
        return true;
    }
};

/** A vector of integers inline: the count, then each element. */
template <class V>
struct Counted
{
    V &v;

    void
    put(std::ostream &os) const
    {
        os << v.size();
        for (const auto &e : v)
            os << ' ' << e;
    }

    bool
    get(std::istream &is) const
    {
        std::size_t n = 0;
        if (!(is >> n))
            return false;
        v.clear();
        // Element by element: a forged count fails at the end of the
        // text instead of allocating up front.
        for (std::size_t i = 0; i < n; ++i) {
            typename std::remove_const_t<V>::value_type e{};
            if (!(is >> e))
                return false;
            v.push_back(e);
        }
        return true;
    }
};

template <class E>
Enumeration<E>
enumeration(E &v, std::remove_const_t<E> max)
{
    return {v, max};
}

/** A bool as 0 or 1; any other token is malformed. */
template <class B> Enumeration<B> flag(B &v) { return {v, true}; }

template <class C> ConfigName<C> config(C &v) { return {v}; }
template <class D> Bits<D> bits(D &v) { return {v}; }
template <class S> Word<S> word(S &v) { return {v}; }
template <class S> Text<S> text(S &v) { return {v}; }
template <class V> Counted<V> counted(V &v) { return {v}; }

template <class T> inline constexpr bool kIsArray = false;
template <class T, std::size_t N>
inline constexpr bool kIsArray<std::array<T, N>> = true;

} // namespace wire

/** Prints a format (see the file comment). */
class WireWriter
{
  public:
    template <class... F>
    void
    line(std::string_view key, const F &...fields)
    {
        os_ << key;
        (field(fields), ...);
        os_ << '\n';
    }

    template <class R>
    void
    keyed(std::string_view prefix, const R &rec)
    {
        visitFields(rec, [&](const char *name, const auto &f) {
            os_ << prefix << name;
            field(f);
            os_ << '\n';
        });
    }

    template <class T, class Each>
    void
    seq(std::string_view key, const std::vector<T> &v, Each &&each,
        std::size_t max = std::numeric_limits<std::size_t>::max())
    {
        check(v.size() <= max);
        line(key, v.size());
        for (const T &e : v)
            each(e);
    }

    void
    check(bool cond)
    {
        ede_assert(cond, "record breaks its own wire format");
    }

    std::string text() const { return os_.str(); }

  private:
    template <class T>
    void
    field(const T &f)
    {
        if constexpr (requires { f.put(os_); }) {
            os_ << ' ';
            f.put(os_);
        } else if constexpr (std::is_integral_v<T>) {
            // Bools go through wire::flag; a char type would print
            // as a character.
            static_assert(sizeof(T) > 1, "write it through wire::flag "
                                         "or wire::enumeration");
            os_ << ' ' << f;
        } else if constexpr (std::is_convertible_v<const T &,
                                                   std::string_view>) {
            os_ << ' ' << std::string_view(f);
        } else if constexpr (std::is_same_v<T, Histogram>) {
            os_ << ' ' << f.size();
            for (std::uint64_t c : f.counts())
                os_ << ' ' << c;
            os_ << " saturated " << f.saturated();
        } else if constexpr (std::is_same_v<T, Distribution>) {
            os_ << ' ' << f.maxValue() << ' ' << f.bucketWidth() << ' '
                << f.numBuckets();
            for (std::uint64_t c : f.counts())
                os_ << ' ' << c;
            os_ << " sum " << f.sampleSum();
        } else if constexpr (wire::kIsArray<T>) {
            for (const auto &e : f)
                field(e);
        } else {
            visitFields(f, [this](const char *, const auto &x) {
                field(x);
            });
        }
    }

    std::ostringstream os_;
};

/** Parses and checks a format (see the file comment). */
class WireReader
{
  public:
    explicit WireReader(const std::string &text) : is_(text) {}

    /** False once anything was malformed. */
    bool ok() const { return ok_; }

    template <class... F>
    void
    line(std::string_view key, F &&...fields)
    {
        expect(key);
        (field(std::forward<F>(fields)), ...);
    }

    template <class R>
    void
    keyed(std::string_view prefix, R &rec)
    {
        visitFields(rec, [&](const char *name, auto &&f) {
            expect(std::string(prefix) + name);
            field(std::forward<decltype(f)>(f));
        });
    }

    template <class T, class Each>
    void
    seq(std::string_view key, std::vector<T> &v, Each &&each,
        std::size_t max = std::numeric_limits<std::size_t>::max())
    {
        std::size_t n = 0;
        line(key, n);
        check(n <= max);
        v.clear();
        // Element by element, as in wire::Counted.
        for (std::size_t i = 0; i < n && ok_; ++i) {
            v.emplace_back();
            each(v.back());
        }
    }

    void check(bool cond) { ok_ = ok_ && cond; }

  private:
    void
    expect(std::string_view key)
    {
        if (!ok_)
            return;
        std::string tok;
        ok_ = (is_ >> tok) && tok == key;
    }

    template <class T>
    void
    field(T &&f)
    {
        using U = std::remove_cvref_t<T>;
        constexpr bool expected =
            !std::is_lvalue_reference_v<T> ||
            std::is_const_v<std::remove_reference_t<T>>;
        if (!ok_)
            return;
        if constexpr (requires { f.get(is_); }) {
            ok_ = f.get(is_);
        } else if constexpr (std::is_integral_v<U>) {
            static_assert(sizeof(U) > 1, "read it through wire::flag "
                                         "or wire::enumeration");
            U x{};
            if (!(is_ >> x))
                ok_ = false;
            else if constexpr (expected)
                ok_ = x == f;
            else
                f = x;
        } else if constexpr (std::is_convertible_v<const U &,
                                                   std::string_view>) {
            static_assert(expected,
                          "read a string through wire::word or "
                          "wire::text");
            std::string tok;
            ok_ = (is_ >> tok) && tok == std::string_view(f);
        } else if constexpr (std::is_same_v<U, Histogram>) {
            std::size_t n = 0;
            field(n);
            check(n == f.size());
            std::vector<std::uint64_t> counts = readCounts(n);
            expect("saturated");
            std::uint64_t saturated = 0;
            field(saturated);
            if (ok_)
                f.restore(std::move(counts), saturated);
        } else if constexpr (std::is_same_v<U, Distribution>) {
            std::uint64_t max = 0, width = 0;
            std::size_t n = 0;
            field(max);
            field(width);
            field(n);
            check(max == f.maxValue() && width == f.bucketWidth() &&
                  n == f.numBuckets());
            std::vector<std::uint64_t> counts = readCounts(n);
            expect("sum");
            std::uint64_t sum = 0;
            field(sum);
            if (ok_)
                f.restore(std::move(counts), sum);
        } else if constexpr (wire::kIsArray<U>) {
            for (auto &e : f)
                field(e);
        } else {
            visitFields(f, [this](const char *, auto &&x) {
                field(std::forward<decltype(x)>(x));
            });
        }
    }

    /** @p n bucket counts; only called once the geometry checked. */
    std::vector<std::uint64_t>
    readCounts(std::size_t n)
    {
        std::vector<std::uint64_t> counts(ok_ ? n : 0, 0);
        for (std::uint64_t &c : counts)
            field(c);
        return counts;
    }

    std::istringstream is_;
    bool ok_ = true;
};

/** @p rec printed through its visitFields(rec, io) layout. */
template <class R>
std::string
writeRecord(const R &rec)
{
    WireWriter out;
    visitFields(rec, out);
    return out.text();
}

/** Inverse of writeRecord; nullopt on any malformation. */
template <class R>
std::optional<R>
readRecord(const std::string &text)
{
    R rec;
    WireReader in(text);
    visitFields(rec, in);
    if (!in.ok())
        return std::nullopt;
    return rec;
}

} // namespace exp
} // namespace ede

#endif // EDE_EXP_WIRE_HH
