#include "core/metrics.hh"

#include <locale>
#include <sstream>

namespace uqsim {

Counter &
MetricsRegistry::counter(const std::string &name)
{
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

bool
MetricsRegistry::has(const std::string &name) const
{
    return counters_.count(name) || gauges_.count(name);
}

void
MetricsRegistry::dump(std::ostream &os) const
{
    for (const auto &[name, c] : counters_)
        os << name << " = " << c->value() << "\n";
    for (const auto &[name, g] : gauges_)
        os << name << " = " << g->value() << "\n";
}

namespace {

/**
 * Full JSON string escaping for metric names: quote, backslash, the
 * short escapes, and \u00XX for the remaining control characters. A
 * name containing a newline or tab must not corrupt the document.
 */
void
emitJsonString(std::ostream &os, const std::string &s)
{
    static const char *hex = "0123456789abcdef";
    os << '"';
    for (char ch : s) {
        const auto c = static_cast<unsigned char>(ch);
        switch (c) {
        case '"': os << "\\\""; break;
        case '\\': os << "\\\\"; break;
        case '\b': os << "\\b"; break;
        case '\f': os << "\\f"; break;
        case '\n': os << "\\n"; break;
        case '\r': os << "\\r"; break;
        case '\t': os << "\\t"; break;
        default:
            if (c < 0x20)
                os << "\\u00" << hex[c >> 4] << hex[c & 0xf];
            else
                os << ch;
        }
    }
    os << '"';
}

} // namespace

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, c] : counters_) {
        if (!first)
            os << ",";
        first = false;
        os << "\n  ";
        emitJsonString(os, name);
        os << ":" << c->value();
    }
    os << "},\n \"gauges\":{";
    first = true;
    for (const auto &[name, g] : gauges_) {
        if (!first)
            os << ",";
        first = false;
        os << "\n  ";
        emitJsonString(os, name);
        os << ":" << g->value();
    }
    os << "}}\n";
}

std::string
MetricsRegistry::snapshotJson() const
{
    // A fresh stream carries no inherited precision/locale state, so
    // the bytes depend only on registry contents (the maps are sorted
    // by construction).
    std::ostringstream os;
    os.imbue(std::locale::classic());
    writeJson(os);
    return os.str();
}

void
MetricsRegistry::resetAll()
{
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, g] : gauges_)
        g->set(0.0);
}

} // namespace uqsim
