"""JVMTI-style method resolution for profiling agents."""

from repro.jvmti.agent_iface import JvmtiEnv, MethodInfo

__all__ = ["JvmtiEnv", "MethodInfo"]
