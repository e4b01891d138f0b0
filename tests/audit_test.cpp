// Tests for the LSERVE_AUDIT page-ownership auditor (kv/page_auditor).
//
// This suite is built in every configuration:
//   - LSERVE_AUDIT=ON  → death tests for double-free / foreign free, leak
//     attribution report contents, and the scheduler-drain clean path;
//   - LSERVE_AUDIT=OFF → static proof that the auditor costs nothing: the
//     stand-in types are empty and PageAllocator's [[no_unique_address]]
//     auditor member cannot change its layout.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <type_traits>

#include "baselines/baseline_engines.hpp"
#include "kv/page_allocator.hpp"
#include "kv/page_auditor.hpp"
#include "serve/scheduler.hpp"

namespace lserve::kv {
namespace {

// Zero-overhead-when-off proof: with auditing compiled out the stand-ins
// are empty classes, so the [[no_unique_address]] member in PageAllocator
// occupies no storage and the hot paths inline to nothing.
#if !LSERVE_AUDIT_ENABLED
static_assert(std::is_empty_v<PageAuditor>,
              "audit-off PageAuditor must be an empty type");
#endif

PageConfig page_cfg() {
  PageConfig cfg;
  cfg.page_size = 8;
  cfg.logical_page_size = 8;
  return cfg;
}

TEST(PageAuditor, UnscopedAllocFreeIsClean) {
  PageAllocator alloc(page_cfg(), 16);
  const PageId a = alloc.allocate();
  const PageId b = alloc.allocate();
  alloc.release(b);
  alloc.release(a);
  EXPECT_EQ(alloc.pages_in_use(), 0u);
  EXPECT_EQ(alloc.audit_report(), "");
}

#if LSERVE_AUDIT_ENABLED

TEST(PageAuditor, ScopeTracksOwnerAndSiteAndNests) {
  EXPECT_EQ(PageAuditScope::current_owner(), kAuditNoOwner);
  {
    const PageAuditScope outer(7, "outer");
    EXPECT_EQ(PageAuditScope::current_owner(), 7u);
    EXPECT_STREQ(PageAuditScope::current_site(), "outer");
    {
      const PageAuditScope inner(9, "inner");
      EXPECT_EQ(PageAuditScope::current_owner(), 9u);
      EXPECT_STREQ(PageAuditScope::current_site(), "inner");
    }
    EXPECT_EQ(PageAuditScope::current_owner(), 7u);
    EXPECT_STREQ(PageAuditScope::current_site(), "outer");
  }
  EXPECT_EQ(PageAuditScope::current_owner(), kAuditNoOwner);
}

TEST(PageAuditorDeathTest, DoubleFreeAborts) {
  PageAllocator alloc(page_cfg(), 16);
  PageId id{};
  {
    const PageAuditScope scope(3, "DoubleFreeTest");
    id = alloc.allocate();
    alloc.release(id);
  }
  // The allocator's own LIFO free list would hand `id` right back out, so
  // the second free goes straight to the auditor's records: still dead,
  // with full three-way attribution.
  const PageAuditScope scope(3, "DoubleFreeTest");
  EXPECT_DEATH(alloc.release(id), "double free");
}

TEST(PageAuditorDeathTest, ForeignFreeAborts) {
  PageAllocator alloc(page_cfg(), 16);
  PageId id{};
  {
    const PageAuditScope scope(1, "ForeignFreeTest::alloc");
    id = alloc.allocate();
  }
  const PageAuditScope scope(2, "ForeignFreeTest::free");
  EXPECT_DEATH(alloc.release(id), "foreign free \\(owner mismatch\\)");
}

TEST(PageAuditorDeathTest, NeverAllocatedFreeAborts) {
  PageAllocator alloc(page_cfg(), 16);
  EXPECT_DEATH(alloc.release(PageId{12345}), "never-allocated");
}

TEST(PageAuditorDeathTest, FreeWhilePinnedAborts) {
  PageAllocator alloc(page_cfg(), 16);
  const PageId id = alloc.allocate();
  const PagePin pin = alloc.pin(id);
  EXPECT_DEATH(alloc.release(id), "freed while pinned");
  // EXPECT_DEATH forks, so this process still holds the pin and the page.
}

TEST(PageAuditorDeathTest, PinOfDeadPageAborts) {
  PageAllocator alloc(page_cfg(), 16);
  const PageId id = alloc.allocate();
  alloc.release(id);
  EXPECT_DEATH({ const PagePin pin = alloc.pin(id); }, "pin of dead page");
}

TEST(PageAuditor, PinTrackingCountsAndAttributes) {
  PageAllocator alloc(page_cfg(), 16);
  const PageId id = alloc.allocate();
  EXPECT_EQ(alloc.audit_pinned_pages(), 0u);
  {
    const PageAuditScope scope(3, "PinTest::reader");
    const PagePin a = alloc.pin(id);
    const PagePin b = alloc.pin(id);  // two pins, one page.
    EXPECT_EQ(alloc.audit_pinned_pages(), 1u);
    const std::string report = alloc.audit_report();
    EXPECT_NE(report.find("2 pin(s)"), std::string::npos) << report;
    EXPECT_NE(report.find("PinTest::reader"), std::string::npos) << report;
  }
  EXPECT_EQ(alloc.audit_pinned_pages(), 0u);  // RAII unpinned both.
  alloc.release(id);
}

TEST(PageAuditor, LeakReportAttributesOwnerAndSite) {
  PageAllocator alloc(page_cfg(), 16);
  PageId leaked{};
  {
    const PageAuditScope scope(42, "LeakTest::site");
    leaked = alloc.allocate();
  }
  const std::string report = alloc.audit_report();
  EXPECT_NE(report.find("owner seq 42"), std::string::npos) << report;
  EXPECT_NE(report.find("LeakTest::site"), std::string::npos) << report;
  EXPECT_NE(report.find("page " + std::to_string(leaked)), std::string::npos)
      << report;

  // Freeing the page clears the report.
  {
    const PageAuditScope scope(42, "LeakTest::cleanup");
    alloc.release(leaked);
  }
  EXPECT_EQ(alloc.audit_report(), "");
}

TEST(PageAuditor, FreeOnAnotherThreadWithSameOwnerIsLegal) {
  // Pages migrate threads legally (pool-worker alloc, scheduler-thread
  // free); ownership is per sequence, not per thread.
  PageAllocator alloc(page_cfg(), 16);
  PageId id{};
  {
    const PageAuditScope scope(5, "CrossThread::alloc");
    id = alloc.allocate();
  }
  std::thread other([&] {
    const PageAuditScope scope(5, "CrossThread::free");
    alloc.release(id);
  });
  other.join();
  EXPECT_EQ(alloc.audit_report(), "");
}

#endif  // LSERVE_AUDIT_ENABLED

// The end-to-end clean path must hold in both configurations: a full
// submit → run → drain cycle leaves no live pages, so the scheduler's
// audit-build quiescence check (and this assertion) pass.
TEST(PageAuditor, SchedulerDrainLeavesPoolsClean) {
  serve::EngineConfig cfg = baselines::vllm_config(model::tiny());
  cfg.dense_pages.page_size = 8;
  cfg.dense_pages.logical_page_size = 8;
  cfg.tiling = {8, 8};
  cfg.pool_pages = 512;
  serve::Engine engine(cfg);
  serve::Scheduler sched(engine, 2);
  for (int i = 0; i < 3; ++i) {
    serve::Request req;
    req.prompt.assign(16, 1);
    req.max_new_tokens = 4;
    sched.submit(req);
  }
  const auto results = sched.drain();
  EXPECT_EQ(results.size(), 3u);
  EXPECT_EQ(engine.total_pages_in_use(), 0u);
  EXPECT_EQ(engine.audit_report(), "");
}

}  // namespace
}  // namespace lserve::kv
