"""Unit tests for elasticity management."""

from repro.core.elasticity import ElasticityManager


class TestElasticityManager:
    def test_membership_tracking(self):
        mgr = ElasticityManager()
        mgr.node_added(1.0, "n0")
        mgr.node_added(2.0, "n1")
        mgr.node_removed(3.0, "n0")
        assert mgr.active_nodes == {"n1"}
        assert mgr.additions == 2
        assert mgr.removals == 1

    def test_event_log_ordered(self):
        mgr = ElasticityManager()
        mgr.node_added(1.0, "n0", reason="user")
        mgr.node_removed(9.0, "n0", reason="drain")
        assert [e.action for e in mgr.events] == ["add", "remove"]
        assert mgr.events[1].reason == "drain"
