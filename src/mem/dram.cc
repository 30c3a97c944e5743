#include "mem/dram.hh"

#include <algorithm>

#include "sim/log.hh"

namespace centaur {

namespace {

const DramConfig &
validated(const DramConfig &cfg)
{
    if (cfg.channels == 0 || cfg.ranksPerChannel == 0 ||
        cfg.banksPerRank == 0)
        fatal("DramConfig.channels (", cfg.channels,
              "), ranksPerChannel (", cfg.ranksPerChannel,
              ") and banksPerRank (", cfg.banksPerRank,
              ") must be positive");
    if (cfg.lineBytes == 0)
        fatal("DramConfig.lineBytes must be positive");
    if (cfg.rowBytes == 0 || cfg.rowBytes % cfg.lineBytes != 0)
        fatal("DramConfig.rowBytes (", cfg.rowBytes,
              ") must be a positive multiple of DramConfig.lineBytes (",
              cfg.lineBytes, ")");
    return cfg;
}

} // namespace

DramModel::DramModel(const DramConfig &cfg)
    : _cfg(validated(cfg)),
      _map(cfg.channels, cfg.banksPerChannel(), cfg.linesPerRow(),
           cfg.lineBytes),
      _banks(static_cast<std::size_t>(cfg.channels) *
             cfg.banksPerChannel()),
      _tRcd(ticksFromNs(cfg.tRcdNs)),
      _tCas(ticksFromNs(cfg.tCasNs)), _tRp(ticksFromNs(cfg.tRpNs)),
      _burst(ticksFromNs(cfg.burstNs)),
      _controller(ticksFromNs(cfg.controllerNs)),
      _tRefi(ticksFromNs(cfg.tRefiNs)),
      _refiDiv(_tRefi > 0 ? _tRefi : 1), _tRfc(ticksFromNs(cfg.tRfcNs)),
      _bytes(_stats.scalar("bytes")), _latency(_stats.average("latency_ns"))
{
    _bus.reserve(cfg.channels);
    for (std::uint32_t ch = 0; ch < cfg.channels; ++ch)
        _bus.emplace_back("dram.ch" + std::to_string(ch) + ".bus");
}

DramAccessResult
DramModel::access(Addr addr, Tick issue)
{
    const DramCoord coord = _map.map(addr);
    BankState &bank =
        _banks[static_cast<std::size_t>(coord.channel) *
                   _map.banksPerChannel() +
               coord.bank];

    Tick start = std::max(issue + _controller, bank.readyAt);

    // All-bank refresh: commands arriving during the tRFC window at
    // the tail of each tREFI period wait it out; refresh also closes
    // every row buffer.
    if (_tRefi > 0) {
        const Tick period_end = (_refiDiv.quot(start) + 1) * _tRefi;
        if (start >= period_end - _tRfc) {
            start = period_end;
            bank.open = false;
        }
    }

    DramAccessResult res;
    res.rowOpen = bank.open;
    Tick cas_issued;
    if (bank.open && bank.openRow == coord.row) {
        res.rowHit = true;
        cas_issued = start;
    } else if (bank.open) {
        // Precharge the open row, activate the new one.
        cas_issued = start + _tRp + _tRcd;
    } else {
        cas_issued = start + _tRcd;
    }
    bank.open = true;
    bank.openRow = coord.row;

    const Tick done =
        _bus[coord.channel].acquire(cas_issued + _tCas, _burst).end;
    // The bank frees once the column access completes into the row
    // buffer; data-bus scheduling is independent of bank occupancy.
    bank.readyAt = cas_issued + _burst;

    ++_reads;
    if (res.rowHit)
        ++_rowHits;
    _bytes += static_cast<double>(_cfg.lineBytes);
    _latency.sample(nsFromTicks(done - issue));

    res.completion = done;
    return res;
}

Tick
DramModel::accessRange(Addr addr, std::uint64_t bytes, Tick issue)
{
    if (bytes == 0)
        return issue;
    const Addr first = addr / _cfg.lineBytes;
    const Addr last = (addr + bytes - 1) / _cfg.lineBytes;
    Tick done = issue;
    for (Addr line = first; line <= last; ++line)
        done = std::max(done,
                        access(line * _cfg.lineBytes, issue).completion);
    return done;
}

void
DramModel::reset()
{
    std::fill(_banks.begin(), _banks.end(), BankState{});
    for (ResourceClock &bus : _bus)
        bus.reset();
    _reads = 0;
    _rowHits = 0;
    _stats.resetAll();
}

} // namespace centaur
