/**
 * @file
 * DDR4 main-memory timing model.
 *
 * Models per-bank row-buffer state (open row, precharge/activate/CAS
 * latencies) and per-channel data-bus serialization. The configuration
 * defaults approximate the paper's evaluation platform: a Broadwell
 * Xeon E5-2680v4 socket with 4 channels of DDR4-2400 (about 77 GB/s
 * peak, 8 KB row buffers - both numbers the paper quotes directly).
 */

#ifndef CENTAUR_MEM_DRAM_HH
#define CENTAUR_MEM_DRAM_HH

#include <cstdint>
#include <vector>

#include "mem/address_map.hh"
#include "sim/divider.hh"
#include "sim/resource.hh"
#include "sim/stats.hh"
#include "sim/units.hh"

namespace centaur {

/** DDR4 organization and timing parameters. */
struct DramConfig
{
    std::uint32_t channels = 4;
    std::uint32_t ranksPerChannel = 2;
    std::uint32_t banksPerRank = 16;
    std::uint32_t rowBytes = 8192; //!< 8 KB row buffer (paper Sec III-C)
    std::uint32_t lineBytes = 64;

    double tCkNs = 0.833;  //!< DDR4-2400 clock period
    double tRcdNs = 14.16; //!< activate-to-CAS
    double tCasNs = 14.16; //!< CAS-to-first-data
    double tRpNs = 14.16;  //!< precharge
    /**
     * Data burst for one 64 B line: BL8 over a DDR bus, i.e. 4 bus
     * clocks = 3.33 ns, giving 19.2 GB/s per channel and 76.8 GB/s
     * across 4 channels.
     */
    double burstNs = 3.33;

    /** Front-end queueing/controller pipeline per request. */
    double controllerNs = 30.0;

    /**
     * All-bank refresh: every tREFI the channel stalls for tRFC
     * (DDR4 8 Gb: 7.8 us / 350 ns). Set tRefiNs to 0 to disable.
     */
    double tRefiNs = 7800.0;
    double tRfcNs = 350.0;

    std::uint32_t banksPerChannel() const
    {
        return ranksPerChannel * banksPerRank;
    }

    std::uint32_t linesPerRow() const { return rowBytes / lineBytes; }

    double
    peakBandwidthGBps() const
    {
        return static_cast<double>(lineBytes) / burstNs *
               static_cast<double>(channels);
    }
};

/** Result of one line access against the DRAM model. */
struct DramAccessResult
{
    Tick completion = 0;  //!< tick the critical word is delivered
    bool rowHit = false;  //!< open-row hit
    bool rowOpen = false; //!< bank had some (other) row open
};

/**
 * Batch-latency DRAM model.
 *
 * Callers submit line-granularity reads with an issue tick; the model
 * resolves bank and data-bus contention against internal busy-until
 * clocks and returns the completion tick. Callers are expected to
 * submit requests in (approximately) nondecreasing issue order, which
 * all centaur-sim requestors do.
 */
class DramModel
{
  public:
    explicit DramModel(const DramConfig &cfg = DramConfig{});

    // _bytes and _latency point into _stats.
    DramModel(const DramModel &) = delete;
    DramModel &operator=(const DramModel &) = delete;

    /** Access one 64 B line. */
    DramAccessResult access(Addr addr, Tick issue);

    /**
     * Access a contiguous @p bytes-long region starting at @p addr.
     * @return completion tick of the last line.
     */
    Tick accessRange(Addr addr, std::uint64_t bytes, Tick issue);

    /** Reset bank/bus state and statistics. */
    void reset();

    const DramConfig &config() const { return _cfg; }
    const AddressMap &addressMap() const { return _map; }
    StatGroup &stats() { return _stats; }
    const StatGroup &stats() const { return _stats; }

    std::uint64_t reads() const { return _reads; }
    std::uint64_t rowHits() const { return _rowHits; }

    double
    rowHitRate() const
    {
        return _reads ? static_cast<double>(_rowHits) /
                            static_cast<double>(_reads)
                      : 0.0;
    }

  private:
    struct BankState
    {
        bool open = false;
        std::uint64_t openRow = 0;
        Tick readyAt = 0; //!< earliest next command
    };

    DramConfig _cfg;
    AddressMap _map;
    std::vector<BankState> _banks;   //!< [channel][bank], row-major
    std::vector<ResourceClock> _bus; //!< data bus per channel

    Tick _tRcd;
    Tick _tCas;
    Tick _tRp;
    Tick _burst;
    Tick _controller;
    Tick _tRefi;
    Divider _refiDiv; //!< start tick -> refresh period (if _tRefi > 0)
    Tick _tRfc;

    std::uint64_t _reads = 0;
    std::uint64_t _rowHits = 0;
    StatGroup _stats{"dram"};
    StatScalar &_bytes;     //!< _stats "bytes"
    StatAverage &_latency;  //!< _stats "latency_ns"
};

} // namespace centaur

#endif // CENTAUR_MEM_DRAM_HH
