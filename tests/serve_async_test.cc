// Async serve front-end: submit/poll happy path, wait-order independence,
// deadline expiry (budget outcome surfaced, cache never poisoned),
// deterministic admission-control rejection under a full queue,
// priority inversion (interactive admitted and dispatched ahead of a
// saturated batch class), and clean shutdown with requests still in flight.

#include "serve/async_service.h"

#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cq/evaluation.h"
#include "relational/database.h"
#include "serve/eval_service.h"
#include "test_util.h"
#include "util/budget.h"

namespace featsep {
namespace testing {
namespace {

using serve::AsyncEvalService;
using serve::AsyncServeOptions;
using serve::EvalService;
using serve::RequestHandle;
using serve::RequestPriority;
using serve::RequestResult;
using serve::RequestState;
using serve::SubmitOptions;
using std::chrono::milliseconds;

std::shared_ptr<const Database> SharedWorld() {
  return std::make_shared<const Database>(MakeWorld());
}

/// Asserts every non-null answer in `result` matches the kernel evaluator —
/// the determinism contract: interrupted requests return nothing or the
/// truth for each feature, never a partial answer.
void ExpectAnswersMatchSerial(const RequestResult& result,
                              const std::vector<ConjunctiveQuery>& features,
                              const Database& db) {
  ASSERT_EQ(result.answers.size(), features.size());
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (result.answers[i] == nullptr) continue;
    CqEvaluator evaluator(features[i]);
    for (Value e : db.Entities()) {
      EXPECT_EQ(result.answers[i]->Selects(db, e),
                evaluator.SelectsEntity(db, e))
          << features[i].ToString() << " on " << db.value_name(e);
    }
  }
}

TEST(ServeAsyncTest, SubmitPollHappyPath) {
  auto db = SharedWorld();
  std::vector<ConjunctiveQuery> features = OutInFeatures();
  AsyncEvalService service;
  RequestHandle handle = service.Submit(features, db);
  ASSERT_TRUE(handle.valid());
  EXPECT_EQ(handle.priority(), RequestPriority::kInteractive);

  const RequestResult& result = handle.Wait();
  EXPECT_EQ(result.state, RequestState::kCompleted);
  EXPECT_EQ(result.budget_outcome, BudgetOutcome::kCompleted);
  EXPECT_EQ(result.sequence, 1u);
  EXPECT_TRUE(result.complete());
  for (const auto& answer : result.answers) EXPECT_NE(answer, nullptr);
  ExpectAnswersMatchSerial(result, features, *db);

  // Poll after completion is repeatable and consistent with Wait.
  EXPECT_TRUE(handle.done());
  EXPECT_EQ(handle.state(), RequestState::kCompleted);
  auto polled = handle.Poll();
  ASSERT_TRUE(polled.has_value());
  EXPECT_EQ(polled->state, RequestState::kCompleted);
  EXPECT_EQ(polled->sequence, result.sequence);

  auto stats = service.stats();
  const auto& cls = stats.of(RequestPriority::kInteractive);
  EXPECT_EQ(cls.submitted, 1u);
  EXPECT_EQ(cls.accepted, 1u);
  EXPECT_EQ(cls.completed, 1u);
  EXPECT_EQ(cls.rejected, 0u);
  EXPECT_EQ(cls.expired, 0u);
  EXPECT_EQ(stats.dispatched, 1u);
}

TEST(ServeAsyncTest, FutureCompletionOrderIndependence) {
  auto db = SharedWorld();
  std::vector<ConjunctiveQuery> features = OutInFeatures();
  AsyncEvalService service;
  std::vector<RequestHandle> handles;
  for (int i = 0; i < 6; ++i) handles.push_back(service.Submit(features, db));

  // Wait in reverse submit order: each handle completes with the right
  // answers no matter the waiting order.
  for (std::size_t i = handles.size(); i-- > 0;) {
    const RequestResult& result = handles[i].Wait();
    EXPECT_EQ(result.state, RequestState::kCompleted);
    ExpectAnswersMatchSerial(result, features, *db);
  }
  auto stats = service.stats();
  EXPECT_EQ(stats.of(RequestPriority::kInteractive).completed, 6u);
}

TEST(ServeAsyncTest, AlreadyExpiredDeadlineTerminalizesWithoutDispatch) {
  auto db = SharedWorld();
  AsyncEvalService service;
  SubmitOptions submit;
  submit.timeout = milliseconds(0);  // Expired before it can dispatch.
  RequestHandle handle = service.Submit(OutInFeatures(), db, submit);
  const RequestResult& result = handle.Wait();
  EXPECT_EQ(result.state, RequestState::kExpired);
  EXPECT_EQ(result.budget_outcome, BudgetOutcome::kTimedOut);
  EXPECT_EQ(result.sequence, 0u) << "must not count as dispatched work";
  for (const auto& answer : result.answers) EXPECT_EQ(answer, nullptr);
  EXPECT_EQ(service.stats().of(RequestPriority::kInteractive).expired, 1u);
  // The kernel was never entered.
  EXPECT_EQ(service.backend().stats().features_evaluated, 0u);
}

TEST(ServeAsyncTest, ExpiredRequestSurfacesOutcomeAndNeverPoisonsCache) {
  auto db = SharedWorld();
  std::vector<ConjunctiveQuery> features = OutInFeatures();
  AsyncEvalService service;

  // A one-step budget enters the kernel and trips mid-evaluation, so at
  // least one feature's shard aborts.
  SubmitOptions starved;
  starved.step_limit = 1;
  RequestHandle expired = service.Submit(features, db, starved);
  const RequestResult& expired_result = expired.Wait();
  EXPECT_EQ(expired_result.state, RequestState::kExpired);
  EXPECT_EQ(expired_result.budget_outcome, BudgetOutcome::kBudgetExhausted);
  // Whatever did complete must still be the truth.
  ExpectAnswersMatchSerial(expired_result, features, *db);

  // A later unbudgeted request over the same (database, features) gets the
  // full correct answers: the aborted evaluation was never cached.
  RequestHandle fresh = service.Submit(features, db);
  const RequestResult& fresh_result = fresh.Wait();
  EXPECT_EQ(fresh_result.state, RequestState::kCompleted);
  for (const auto& answer : fresh_result.answers) EXPECT_NE(answer, nullptr);
  ExpectAnswersMatchSerial(fresh_result, features, *db);

  auto backend = service.backend().stats();
  EXPECT_GE(backend.evaluation_retries, 1u)
      << "the aborted key should have been re-requested, not cache-hit";
  auto stats = service.stats();
  const auto& cls = stats.of(RequestPriority::kInteractive);
  EXPECT_EQ(cls.expired, 1u);
  EXPECT_EQ(cls.completed, 1u);
}

TEST(ServeAsyncTest, RejectedAtAdmissionIsDeterministicWhenQueueFull) {
  auto db = SharedWorld();
  std::vector<ConjunctiveQuery> features = OutInFeatures();
  AsyncServeOptions options;
  options.queue_capacity = 2;
  options.num_dispatchers = 1;
  AsyncEvalService service(options);
  service.PauseDispatch();  // Hold the queue at a deterministic depth.

  RequestHandle first = service.Submit(features, db);
  RequestHandle second = service.Submit(features, db);
  RequestHandle shed = service.Submit(features, db);

  // The rejection is structured and immediate: terminal before Submit
  // returned, so neither Poll nor Wait can block.
  EXPECT_TRUE(shed.done());
  EXPECT_EQ(shed.state(), RequestState::kRejected);
  auto polled = shed.Poll();
  ASSERT_TRUE(polled.has_value());
  EXPECT_EQ(polled->state, RequestState::kRejected);
  EXPECT_EQ(polled->sequence, 0u);
  ASSERT_EQ(polled->answers.size(), features.size());
  for (const auto& answer : polled->answers) EXPECT_EQ(answer, nullptr);

  auto stats = service.stats();
  const auto& cls = stats.of(RequestPriority::kInteractive);
  EXPECT_EQ(cls.submitted, 3u);
  EXPECT_EQ(cls.accepted, 2u);
  EXPECT_EQ(cls.rejected, 1u);
  EXPECT_EQ(cls.queue_high_water, 2u);
  EXPECT_EQ(service.queue_depth(RequestPriority::kInteractive), 2u);

  service.ResumeDispatch();
  EXPECT_EQ(first.Wait().state, RequestState::kCompleted);
  EXPECT_EQ(second.Wait().state, RequestState::kCompleted);
}

TEST(ServeAsyncTest, InteractiveAdmittedAndDispatchedAheadOfSaturatedBatch) {
  auto db = SharedWorld();
  std::vector<ConjunctiveQuery> features = OutInFeatures();
  AsyncServeOptions options;
  options.queue_capacity = 2;
  options.num_dispatchers = 1;
  AsyncEvalService service(options);
  service.PauseDispatch();

  SubmitOptions batch;
  batch.priority = RequestPriority::kBatch;
  RequestHandle batch_a = service.Submit(features, db, batch);
  RequestHandle batch_b = service.Submit(features, db, batch);
  RequestHandle batch_shed = service.Submit(features, db, batch);
  EXPECT_EQ(batch_shed.state(), RequestState::kRejected);

  // The batch class is saturated; an interactive request is still admitted
  // (separate queue) — no priority inversion at admission.
  RequestHandle interactive = service.Submit(features, db);
  EXPECT_NE(interactive.state(), RequestState::kRejected);
  EXPECT_EQ(service.queue_depth(RequestPriority::kInteractive), 1u);
  EXPECT_EQ(service.queue_depth(RequestPriority::kBatch), 2u);

  service.ResumeDispatch();
  const RequestResult& ir = interactive.Wait();
  const RequestResult& ba = batch_a.Wait();
  const RequestResult& bb = batch_b.Wait();
  EXPECT_EQ(ir.state, RequestState::kCompleted);
  EXPECT_EQ(ba.state, RequestState::kCompleted);
  EXPECT_EQ(bb.state, RequestState::kCompleted);
  // Nor at dispatch: the interactive request submitted last runs first.
  EXPECT_LT(ir.sequence, ba.sequence);
  EXPECT_LT(ir.sequence, bb.sequence);
  EXPECT_LT(ba.sequence, bb.sequence);  // FIFO within a class.

  auto stats = service.stats();
  EXPECT_EQ(stats.of(RequestPriority::kBatch).rejected, 1u);
  EXPECT_EQ(stats.of(RequestPriority::kBatch).completed, 2u);
  EXPECT_EQ(stats.of(RequestPriority::kInteractive).completed, 1u);
}

TEST(ServeAsyncTest, CancelQueuedRequestTerminalizesAsCancelled) {
  auto db = SharedWorld();
  AsyncEvalService service;
  service.PauseDispatch();
  RequestHandle handle = service.Submit(OutInFeatures(), db);
  handle.Cancel();
  service.ResumeDispatch();
  const RequestResult& result = handle.Wait();
  EXPECT_EQ(result.state, RequestState::kCancelled);
  EXPECT_EQ(result.budget_outcome, BudgetOutcome::kCancelled);
  EXPECT_EQ(result.sequence, 0u);
  EXPECT_EQ(service.stats().of(RequestPriority::kInteractive).cancelled, 1u);
  EXPECT_EQ(service.backend().stats().features_evaluated, 0u);
}

TEST(ServeAsyncTest, CleanShutdownWithRequestsInFlight) {
  auto db = std::make_shared<Database>(GraphSchema());
  AddClique(*db, "k", 8);
  for (int i = 0; i < 8; ++i) AddEntity(*db, "k" + std::to_string(i));
  auto shared = std::shared_ptr<const Database>(db);
  std::vector<ConjunctiveQuery> features = OutInFeatures();

  std::vector<RequestHandle> handles;
  {
    AsyncEvalService service;
    service.PauseDispatch();
    for (int i = 0; i < 8; ++i) {
      SubmitOptions submit;
      submit.priority =
          i % 2 ? RequestPriority::kBatch : RequestPriority::kInteractive;
      handles.push_back(service.Submit(features, shared, submit));
    }
    service.ResumeDispatch();
    // Destruct with work queued and likely in flight: queued requests
    // terminalize as kCancelled without running, a running one unwinds
    // cooperatively, and every result is ready before the destructor
    // returns — asan/tsan verify no leak and no race.
  }
  for (const RequestHandle& handle : handles) {
    ASSERT_TRUE(handle.done());
    const RequestResult& result = handle.Wait();  // Safe after destruction.
    EXPECT_TRUE(result.state == RequestState::kCompleted ||
                result.state == RequestState::kCancelled)
        << RequestStateName(result.state);
    ExpectAnswersMatchSerial(result, features, *shared);
  }
}

TEST(ServeAsyncTest, StatsBalanceAcrossMixedOutcomes) {
  auto db = SharedWorld();
  std::vector<ConjunctiveQuery> features = OutInFeatures();
  AsyncServeOptions options;
  options.queue_capacity = 3;
  AsyncEvalService service(options);
  service.PauseDispatch();
  std::vector<RequestHandle> handles;
  for (int i = 0; i < 5; ++i) {
    SubmitOptions submit;
    if (i == 1) submit.timeout = milliseconds(0);
    handles.push_back(service.Submit(features, db, submit));
  }
  handles[2].Cancel();
  service.ResumeDispatch();
  for (const RequestHandle& handle : handles) handle.Wait();

  auto stats = service.stats();
  const auto& cls = stats.of(RequestPriority::kInteractive);
  EXPECT_EQ(cls.submitted, 5u);
  EXPECT_EQ(cls.submitted, cls.accepted + cls.rejected);
  EXPECT_EQ(cls.accepted, cls.completed + cls.expired + cls.cancelled);
  EXPECT_EQ(cls.rejected, 2u);
  EXPECT_EQ(cls.expired, 1u);
  EXPECT_EQ(cls.cancelled, 1u);
  EXPECT_EQ(cls.completed, 1u);
  EXPECT_LE(cls.queue_high_water, options.queue_capacity);
}

TEST(ServeAsyncTest, AsyncPathWarmsSharedBackendCache) {
  auto db = SharedWorld();
  std::vector<ConjunctiveQuery> features = OutInFeatures();
  AsyncEvalService service;
  service.Submit(features, db).Wait();
  auto cold = service.backend().stats();
  EXPECT_EQ(cold.cache_misses, features.size());

  // The synchronous backend path sees the answers the async path cached.
  service.backend().Matrix(features, *db);
  auto warm = service.backend().stats();
  EXPECT_EQ(warm.cache_hits, features.size());
  EXPECT_EQ(warm.features_evaluated, cold.features_evaluated);
}

TEST(ServeAsyncTest, EnumNamesAreStable) {
  EXPECT_STREQ(serve::RequestPriorityName(RequestPriority::kInteractive),
               "interactive");
  EXPECT_STREQ(serve::RequestPriorityName(RequestPriority::kBatch), "batch");
  EXPECT_STREQ(serve::RequestStateName(RequestState::kQueued), "queued");
  EXPECT_STREQ(serve::RequestStateName(RequestState::kRejected), "rejected");
  EXPECT_STREQ(serve::RequestStateName(RequestState::kExpired), "expired");
}

}  // namespace
}  // namespace testing
}  // namespace featsep
