"""The keyed runner pool (`get_runner`) and cost-model auto-refit.

`get_runner` is a plain cache keyed by ``(store file, backend)``, so an
embedded server can run independent sweeps per tenant.  It reads no
environment variables: the ``REPRO_*`` layer is
:class:`repro.api.SessionConfig`'s, so the tests below that set those
variables reach the pool through a :class:`repro.api.Session` (more in
``test_api_session.py``).
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.generators import uniform_instance
from repro.runtime import BatchRunner, QueueBackend, SerialBackend, pool
from repro.runtime.pool import get_runner


@pytest.fixture(autouse=True)
def isolated_runner_pool(monkeypatch):
    """Each test sees an empty runner pool (the module state is global)."""
    monkeypatch.setattr(pool, "_RUNNERS", {})
    monkeypatch.setattr(pool, "_SHARED_STORES", {})
    yield
    for store in pool._SHARED_STORES.values():
        store.close()


class TestKeyedPool:
    def test_bare_calls_share_one_default_runner(self):
        assert get_runner() is get_runner()

    def test_one_runner_per_store_file(self, tmp_path):
        runner_a = get_runner(tmp_path / "tenant_a.sqlite")
        runner_b = get_runner(tmp_path / "tenant_b.sqlite")
        assert runner_a is not runner_b
        assert get_runner(tmp_path / "tenant_a.sqlite") is runner_a
        assert runner_a.store.path != runner_b.store.path

    def test_per_tenant_runners_have_independent_caches(self, tmp_path):
        runner_a = get_runner(tmp_path / "tenant_a.sqlite")
        runner_b = get_runner(tmp_path / "tenant_b.sqlite")
        inst = uniform_instance(12, 3, 3, seed=0, integral=True)
        runner_a.run_one("class-aware-greedy", inst)
        assert runner_a.stats["tasks"] == 1
        assert runner_b.stats["tasks"] == 0  # fully independent sweep state

    def test_same_store_different_backend_shares_the_handle(self, tmp_path):
        path = tmp_path / "shared.sqlite"
        serial = get_runner(path, backend="serial")
        queued = get_runner(path, backend="queue")
        assert serial is not queued
        assert isinstance(serial.backend, SerialBackend)
        assert isinstance(queued.backend, QueueBackend)
        # One ResultStore handle: one connection, one put counter.
        assert serial.store is queued.store

    def test_explicit_backend_honoured_after_default_exists(self):
        default = get_runner()  # auto backend
        serial = get_runner(backend="serial")
        assert isinstance(serial.backend, SerialBackend)
        assert get_runner(backend="serial") is serial
        assert get_runner() is default  # bare calls still hit the default

    # The REPRO_* variables still pick the pooled runner; since the pool
    # reads no environment, they reach it through the Session config.
    def test_backend_env_variable_selects_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        runner = Session().runner()
        assert isinstance(runner.backend, SerialBackend)
        assert get_runner(backend="serial") is runner  # same pool key

    def test_store_env_variable_selects_store(self, tmp_path, monkeypatch):
        path = tmp_path / "env.sqlite"
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.setenv("REPRO_RESULT_STORE", str(path))
        runner = Session().runner()
        assert runner.store is not None
        assert str(runner.store.path) == str(path)
        assert get_runner(str(path)) is runner  # same pool key

    def test_pool_reads_no_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "env.sqlite"))
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        runner = get_runner()
        assert runner.store is None
        assert get_runner(None, None) is runner  # keyed (None, None)
        assert get_runner(backend="serial") is not runner


class TestAutoRefit:
    def test_refit_triggers_after_refit_every_puts(self, tmp_path):
        runner = BatchRunner(max_workers=1, store=tmp_path / "refit.sqlite",
                             refit_every=2)
        instances = [uniform_instance(12, 3, 3, seed=s, integral=True)
                     for s in range(3)]
        assert runner.cost_model() is None  # cold store: nothing to fit
        runner.run(["class-aware-greedy"], instances)  # 3 puts > refit_every
        model = runner.cost_model()  # re-armed by the put counter
        assert model is not None
        assert model.known_algorithms() == ["class-aware-greedy"]

    def test_no_auto_refit_when_disabled(self, tmp_path):
        runner = BatchRunner(max_workers=1, store=tmp_path / "norefit.sqlite",
                             refit_every=None)
        instances = [uniform_instance(12, 3, 3, seed=s, integral=True)
                     for s in range(3)]
        assert runner.cost_model() is None  # resolves "auto" -> None (empty)
        runner.run(["class-aware-greedy"], instances)
        assert runner.cost_model() is None  # never re-armed
        assert runner.refit_cost_model() is not None  # manual override works

    def test_explicit_model_is_never_auto_refitted(self, tmp_path):
        from repro.store import CostModel

        frozen = CostModel.fit([])
        runner = BatchRunner(max_workers=1, store=tmp_path / "frozen.sqlite",
                             cost_model=frozen, refit_every=1)
        instances = [uniform_instance(12, 3, 3, seed=s, integral=True)
                     for s in range(2)]
        runner.run(["class-aware-greedy"], instances)
        assert runner.cost_model() is frozen  # caller's model is sacred

    def test_shared_store_puts_advance_every_tenants_refit(self, tmp_path):
        """With get_runner sharing one ResultStore handle, tenant A's
        writes refresh tenant B's predictions."""
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "shared.sqlite")
        writer = BatchRunner(max_workers=1, store=store, refit_every=2)
        reader = BatchRunner(max_workers=1, store=store, refit_every=2)
        assert reader.cost_model() is None
        instances = [uniform_instance(12, 3, 3, seed=s, integral=True)
                     for s in range(3)]
        writer.run(["class-aware-greedy"], instances)
        # The reader never put anything itself, but the shared counter
        # crossed its threshold: its next write-through re-arms.
        reader.run(["lpt-with-setups"], instances[:1])
        model = reader.cost_model()
        assert model is not None
        assert "class-aware-greedy" in model.known_algorithms()
        store.close()

    def test_invalid_refit_every_rejected(self):
        with pytest.raises(ValueError, match="refit_every"):
            BatchRunner(refit_every=0)
