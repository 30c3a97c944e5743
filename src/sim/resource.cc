#include "sim/resource.hh"

#include <algorithm>
#include <limits>

#include "sim/log.hh"

namespace centaur {

ResourceClock::ResourceClock(std::string name, std::uint32_t lanes)
    : _name(std::move(name))
{
    if (lanes == 0)
        fatal("resource '", _name, "' needs at least one lane");
    _laneBusyUntil.assign(lanes, 0);
}

ResourceClock::Grant
ResourceClock::acquire(Tick ready, Tick duration, std::uint32_t lanes)
{
    const std::uint32_t want =
        std::max<std::uint32_t>(1, std::min(lanes, this->lanes()));

    Grant g;
    g.ready = ready;
    if (want == 1 && _laneBusyUntil.size() == 1) {
        // The single-server fast path: exactly the busy-until
        // arithmetic mem/dram.cc and interconnect/link.cc always used.
        Tick &lane = _laneBusyUntil.front();
        g.start = std::max(ready, lane);
        g.end = g.start + duration;
        lane = g.end;
    } else {
        // Gang scheduling: the request starts once `want` lanes are
        // simultaneously free. Take the earliest-free lanes, lowest
        // index first among equals, so grants are platform-independent:
        // every lane free before `cut`, the want-th smallest busy-until,
        // and the lowest-index lanes free exactly at `cut`. Finding
        // `cut` steps through the distinct busy-until values from the
        // smallest up, so a grant allocates nothing.
        Tick cut = busyUntil();
        std::uint32_t below = 0; // lanes free strictly before cut
        for (;;) {
            const auto at = static_cast<std::uint32_t>(std::count(
                _laneBusyUntil.begin(), _laneBusyUntil.end(), cut));
            if (below + at >= want)
                break;
            below += at;
            Tick next = std::numeric_limits<Tick>::max();
            for (const Tick busy : _laneBusyUntil)
                if (busy > cut)
                    next = std::min(next, busy);
            cut = next;
        }
        g.start = std::max(ready, cut);
        g.end = g.start + duration;
        std::uint32_t atCut = want - below;
        for (Tick &busy : _laneBusyUntil) {
            if (busy < cut) {
                busy = g.end;
            } else if (busy == cut && atCut > 0) {
                busy = g.end;
                --atCut;
            }
        }
    }

    ++_grants;
    _busyTicks += static_cast<Tick>(want) * duration;
    _waitTicks += g.wait();
    _horizon = std::max(_horizon, g.end);
    return g;
}

Tick
ResourceClock::busyUntil() const
{
    return *std::min_element(_laneBusyUntil.begin(),
                             _laneBusyUntil.end());
}

double
ResourceClock::utilization(Tick horizon) const
{
    const Tick h = horizon ? horizon : _horizon;
    if (h == 0)
        return 0.0;
    return static_cast<double>(_busyTicks) /
           (static_cast<double>(h) *
            static_cast<double>(_laneBusyUntil.size()));
}

double
ResourceClock::meanWaitUs() const
{
    return _grants ? usFromTicks(_waitTicks) /
                         static_cast<double>(_grants)
                   : 0.0;
}

ResourceClock::Frontier
ResourceClock::snapshot() const
{
    return Frontier{_laneBusyUntil};
}

Tick
ResourceClock::rollbackTo(const Frontier &snap, Tick cutoff)
{
    if (snap.laneBusyUntil.size() != _laneBusyUntil.size())
        fatal("resource '", _name,
              "' frontier snapshot has ", snap.laneBusyUntil.size(),
              " lanes, clock has ", _laneBusyUntil.size());
    Tick reclaimed = 0;
    for (std::size_t i = 0; i < _laneBusyUntil.size(); ++i) {
        const Tick floor = std::max(cutoff, snap.laneBusyUntil[i]);
        if (_laneBusyUntil[i] > floor) {
            reclaimed += _laneBusyUntil[i] - floor;
            _laneBusyUntil[i] = floor;
        }
    }
    _busyTicks -= std::min(reclaimed, _busyTicks);
    return reclaimed;
}

void
ResourceClock::reset()
{
    std::fill(_laneBusyUntil.begin(), _laneBusyUntil.end(), 0);
    _grants = 0;
    _busyTicks = 0;
    _waitTicks = 0;
    _horizon = 0;
}

} // namespace centaur
