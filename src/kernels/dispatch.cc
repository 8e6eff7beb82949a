/**
 * @file
 * Kernel tier detection and dispatch.
 *
 * Tier resolution happens once, on the first ops() call: the
 * BOSS_KERNELS environment variable is consulted ("scalar", "avx2"
 * or "auto"), then CPUID. The active table is held in an atomic
 * pointer so concurrent readers on the query path pay one relaxed
 * load; setTier() (tests, CLI --kernels) swaps it from
 * single-threaded context.
 */

#include "kernels/kernels_impl.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <optional>

#include "common/logging.h"

namespace boss::kernels
{

namespace
{

std::atomic<const Ops *> gActiveOps{nullptr};
std::atomic<Tier> gActiveTier{Tier::Scalar};
std::once_flag gInitOnce;

void
activate(Tier t)
{
    const Ops &table = opsFor(t); // fatal if unsupported here
    gActiveTier.store(t, std::memory_order_relaxed);
    gActiveOps.store(&table, std::memory_order_release);
}

/**
 * The tier an override name selects ("auto" is the best supported
 * one); nullopt for an unknown name. BOSS_KERNELS and --kernels
 * both parse here.
 */
std::optional<Tier>
tierFromName(std::string_view name)
{
    if (name == "auto")
        return bestSupportedTier();
    for (Tier t : {Tier::Scalar, Tier::Avx2}) {
        if (name == tierName(t))
            return t;
    }
    return std::nullopt;
}

/** Resolve the startup tier: BOSS_KERNELS env var, then CPUID. */
void
initFromEnvironment()
{
    const char *env = std::getenv("BOSS_KERNELS");
    if (env == nullptr || env[0] == '\0') {
        activate(bestSupportedTier());
        return;
    }
    std::optional<Tier> t = tierFromName(env);
    if (!t)
        BOSS_FATAL("BOSS_KERNELS='", env, "' is not scalar|avx2|auto");
    if (!tierSupported(*t))
        BOSS_FATAL("BOSS_KERNELS='", env,
                   "' requests a kernel tier this host "
                   "does not support");
    activate(*t);
}

void
ensureInit()
{
    std::call_once(gInitOnce, initFromEnvironment);
}

} // namespace

std::string_view
tierName(Tier t)
{
    return t == Tier::Avx2 ? "avx2" : "scalar";
}

bool
tierSupported(Tier t)
{
    if (t == Tier::Scalar)
        return true;
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
    return detail::kAvx2Compiled && __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

Tier
bestSupportedTier()
{
    return tierSupported(Tier::Avx2) ? Tier::Avx2 : Tier::Scalar;
}

std::vector<Tier>
availableTiers()
{
    std::vector<Tier> tiers{Tier::Scalar};
    if (tierSupported(Tier::Avx2))
        tiers.push_back(Tier::Avx2);
    return tiers;
}

Tier
activeTier()
{
    ensureInit();
    return gActiveTier.load(std::memory_order_relaxed);
}

std::string_view
activeTierName()
{
    return tierName(activeTier());
}

void
setTier(Tier t)
{
    ensureInit();
    activate(t);
}

bool
setTierByName(std::string_view name)
{
    std::optional<Tier> t = tierFromName(name);
    if (!t)
        return false;
    setTier(*t);
    return true;
}

const Ops &
ops()
{
    const Ops *p = gActiveOps.load(std::memory_order_acquire);
    if (p == nullptr) {
        ensureInit();
        p = gActiveOps.load(std::memory_order_acquire);
    }
    return *p;
}

const Ops &
opsFor(Tier t)
{
    if (!tierSupported(t))
        BOSS_FATAL("kernel tier '", tierName(t),
                   "' is not supported on this host");
    return t == Tier::Avx2 ? detail::kAvx2Ops : detail::kScalarOps;
}

} // namespace boss::kernels
