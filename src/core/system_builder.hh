/**
 * @file
 * SystemBuilder: assembles any registered backend spec
 * (core/backend.hh) into a runnable ComposedSystem - one
 * EmbeddingBackend plus one MlpBackend over the shared platform
 * state (CPU cache hierarchy + DRAM, built only when a host-side
 * stage reads them), with interconnect hop costs
 * decided by the spec's placement. The paper's three design points
 * are canned presets ("cpu", "cpu+gpu", "cpu+fpga") that reproduce
 * the monolithic CpuOnlySystem / CpuGpuSystem / CentaurSystem
 * tick-for-tick (asserted by tests/core/test_composed_system.cc).
 */

#ifndef CENTAUR_CORE_SYSTEM_BUILDER_HH
#define CENTAUR_CORE_SYSTEM_BUILDER_HH

#include <memory>
#include <string>

#include "core/backend.hh"
#include "core/fabric.hh"
#include "core/system.hh"
#include "cpu/cpu_config.hh"
#include "fpga/centaur_config.hh"
#include "gpu/gpu_model.hh"
#include "interconnect/hop.hh"
#include "mem/dram.hh"

namespace centaur {

/**
 * Fluent assembly of a ComposedSystem. All device configs default
 * to the paper's evaluation platform; only the spec and model are
 * mandatory inputs.
 *
 *   auto sys = SystemBuilder().spec("gpu+fpga").model(cfg).build();
 */
class SystemBuilder
{
  public:
    SystemBuilder() = default;

    /** Select a registered spec by name (fatal on unknown names). */
    SystemBuilder &spec(const std::string &name);

    /** Select an explicit (possibly unregistered) spec. */
    SystemBuilder &spec(const SystemSpec &s);

    SystemBuilder &model(const DlrmConfig &cfg);
    SystemBuilder &power(const PowerConfig &cfg);
    SystemBuilder &cpu(const CpuConfig &cfg);
    SystemBuilder &gpu(const GpuConfig &cfg);
    SystemBuilder &fpga(const CentaurConfig &cfg);
    SystemBuilder &dram(const DramConfig &cfg);
    /** Hop used by PciePeer-placed FPGA MLP stages. */
    SystemBuilder &hop(const InterconnectHop &h);
    /**
     * Attach the node's shared-resource fabric (core/fabric.hh).
     * Non-owning; every system built with the same fabric contends
     * for the node's cores, DRAM bandwidth and PCIe pipes. Null
     * (the default) builds an uncontended standalone system.
     */
    SystemBuilder &fabric(Fabric *f);

    /**
     * Attach the node's shared hot-row cache tier
     * (cachetier/cache_tier.hh). Non-owning; workers sharing one
     * tier warm it for each other, like the fabric. When null (the
     * default) and the spec carries an enabled `/cache:` part, the
     * built system owns a private tier instead.
     */
    SystemBuilder &cacheTier(CacheTier *tier);

    /** Assemble the composed system. */
    std::unique_ptr<System> build() const;

  private:
    SystemSpec _spec{};
    DlrmConfig _model{};
    PowerConfig _power{};
    CpuConfig _cpu{};
    GpuConfig _gpu{};
    CentaurConfig _fpga{};
    DramConfig _dram{};
    InterconnectHop _hop{};
    Fabric *_fabric = nullptr;
    CacheTier *_cacheTier = nullptr;
};

/** Convenience: build a registered spec with default device configs. */
std::unique_ptr<System> makeSystem(const std::string &spec,
                                   const DlrmConfig &cfg);

/**
 * Convenience: build a registered spec sharing @p fabric with the
 * other systems on its node (nullptr = uncontended).
 */
std::unique_ptr<System> makeSystem(const std::string &spec,
                                   const DlrmConfig &cfg,
                                   Fabric *fabric);

} // namespace centaur

#endif // CENTAUR_CORE_SYSTEM_BUILDER_HH
